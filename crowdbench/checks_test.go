package main

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/transport"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// tiny is a small workload for tests: a few devices, a few cycles.
var tiny = workload{
	name: "tiny", classes: 3, dim: 4, noiseScale: 0.5, minibatch: 2,
	devices: 5, cycles: 12, testSize: 30,
	wire: transport.WireBinaryDelta, writerPolls: 2, watchers: 1,
}

// checkinStream returns n deterministic checkins from a tiny crowd.
func checkinStream(t *testing.T, n int) (ids []string, reqs []*core.CheckinRequest) {
	t.Helper()
	in, err := makeInputs(tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	noise := in.noiseStreams()
	m := serverConfig(tiny).Model
	ref := newReference(tiny.classes, tiny.dim)
	for k := 0; k < n; k++ {
		d := k % tiny.devices
		co := &core.CheckoutResponse{Params: append([]float64(nil), ref.params...), Version: ref.iter}
		req, err := computeCheckin(m, co, in.batches[k%len(in.batches)], noise[d])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, deviceID(d))
		reqs = append(reqs, req)
		ref.apply(deviceID(d), req)
	}
	return ids, reqs
}

// leaderAfter applies the stream to a real core.Server (every device
// registered, so some may never check in) and returns its state.
func leaderAfter(t *testing.T, ids []string, reqs []*core.CheckinRequest) *core.ServerState {
	t.Helper()
	ctx := context.Background()
	srv, err := core.NewServer(serverConfig(tiny))
	if err != nil {
		t.Fatal(err)
	}
	tokens := map[string]string{}
	for i := 0; i < tiny.devices+2; i++ {
		if tokens[deviceID(i)], err = srv.RegisterDevice(ctx, deviceID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, req := range reqs {
		if err := srv.Checkin(ctx, ids[i], tokens[ids[i]], req); err != nil {
			t.Fatal(err)
		}
	}
	return srv.ExportState()
}

func referenceOf(ids []string, reqs []*core.CheckinRequest) *reference {
	ref := newReference(tiny.classes, tiny.dim)
	for i, req := range reqs {
		ref.apply(ids[i], req)
	}
	return ref
}

func TestReferenceMatchesLeaderBitForBit(t *testing.T) {
	ids, reqs := checkinStream(t, 9)
	st := leaderAfter(t, ids, reqs)
	if err := referenceOf(ids, reqs).checkLeader(st, len(reqs), tiny.minibatch); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLeaderRejectsOneULPFlip(t *testing.T) {
	ids, reqs := checkinStream(t, 9)
	st := leaderAfter(t, ids, reqs)
	st.Params[3] = math.Nextafter(st.Params[3], math.Inf(1))
	err := referenceOf(ids, reqs).checkLeader(st, len(reqs), tiny.minibatch)
	if err == nil || !strings.Contains(err.Error(), "parameter 3") {
		t.Fatalf("one-ulp flip not rejected: %v", err)
	}
}

func TestCheckLeaderRejectsDroppedCheckin(t *testing.T) {
	ids, reqs := checkinStream(t, 9)
	st := leaderAfter(t, ids, reqs)
	// The leader saw every checkin; the reference lost the fifth.
	drop := func(s []string, r []*core.CheckinRequest, i int) ([]string, []*core.CheckinRequest) {
		return append(append([]string(nil), s[:i]...), s[i+1:]...),
			append(append([]*core.CheckinRequest(nil), r[:i]...), r[i+1:]...)
	}
	dids, dreqs := drop(ids, reqs, 4)
	if err := referenceOf(dids, dreqs).checkLeader(st, len(reqs), tiny.minibatch); err == nil {
		t.Fatal("a dropped checkin was not rejected")
	}
	// And the other way round: a leader that lost one.
	lst := leaderAfter(t, dids, dreqs)
	if err := referenceOf(ids, reqs).checkLeader(lst, len(reqs), tiny.minibatch); err == nil {
		t.Fatal("a leader missing a checkin was not rejected")
	}
}

func TestCheckSameStateRejectsFollowerOneEntryShort(t *testing.T) {
	ids, reqs := checkinStream(t, 9)
	leaderState := leaderAfter(t, ids, reqs)
	follow := func(n int) *core.ServerState {
		srv, err := core.NewServer(serverConfig(tiny))
		if err != nil {
			t.Fatal(err)
		}
		records := make([]core.ReplayRecord, n)
		for i := range records {
			records[i] = core.ReplayRecord{DeviceID: ids[i], Iteration: i + 1, Req: reqs[i]}
		}
		if _, err := srv.Replay(core.ReplaySlice(records)); err != nil {
			t.Fatal(err)
		}
		return srv.ExportState()
	}
	if err := checkSameState("follower", leaderState, follow(len(reqs))); err != nil {
		t.Fatalf("caught-up follower rejected: %v", err)
	}
	if err := checkSameState("follower", leaderState, follow(len(reqs)-1)); err == nil {
		t.Fatal("a follower one entry short was not rejected")
	}
	flipped := follow(len(reqs))
	flipped.Params[0] = math.Nextafter(flipped.Params[0], math.Inf(-1))
	if err := checkSameState("follower", leaderState, flipped); err == nil {
		t.Fatal("a one-ulp follower flip was not rejected")
	}
}

func TestCheckPollRejectsWrongDeltaBase(t *testing.T) {
	ctx := context.Background()
	srv, err := core.NewServer(serverConfig(tiny))
	if err != nil {
		t.Fatal(err)
	}
	tok, err := srv.RegisterDevice(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(tiny.classes, tiny.dim)
	checkin := func(grad []float64) {
		req := &core.CheckinRequest{Grad: grad, NumSamples: 1, LabelCounts: make([]int, tiny.classes), Version: ref.iter}
		if err := srv.Checkin(ctx, "d", tok, req); err != nil {
			t.Fatal(err)
		}
		ref.apply("d", req)
	}
	dense := make([]float64, tiny.classes*tiny.dim)
	for i := range dense {
		dense[i] = float64(i%5) - 2.5
	}
	checkin(dense)
	base := append([]float64(nil), srv.Params().Data()...)
	baseVer := ref.iter
	// A one-coordinate change: the server answers with a sparse delta.
	sparse := make([]float64, len(dense))
	sparse[2] = 1
	checkin(sparse)
	pd := srv.ParamDelta(baseVer)
	frame := wirecodec.AppendCheckout(nil, pd.Params, pd.Version, pd.Done, pd.Since, pd.Indices, pd.Values, false)
	if kind := frameKind(frame); kind != "wirecodec.frames_sparse" {
		t.Fatalf("frame is %s, want a sparse delta", kind)
	}

	good := &vdev{base: base, baseVer: baseVer, hasBase: true}
	co, err := good.decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkPoll(co.Version, co.Params); err != nil {
		t.Fatalf("correct base rejected: %v", err)
	}
	// The right version label on the wrong contents: iteration 0's zeros.
	wrong := &vdev{base: make([]float64, len(base)), baseVer: baseVer, hasBase: true}
	co, err = wrong.decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkPoll(co.Version, co.Params); err == nil {
		t.Fatal("a model rebuilt on the wrong delta base was not rejected")
	}
}

func TestCheckTestError(t *testing.T) {
	for _, c := range []struct {
		testErr, batchErr float64
		ok                bool
	}{
		{0.15, 0.10, true},
		{0.46, 0.40, false}, // not well below chance (0.9)
		{0.44, 0.10, false}, // too far above the batch learner
	} {
		if err := checkTestError(c.testErr, c.batchErr, 10); (err == nil) != c.ok {
			t.Errorf("test error %.2f against batch %.2f: %v", c.testErr, c.batchErr, err)
		}
	}
}

func TestFrameKind(t *testing.T) {
	params := []float64{1, 2, 3, 4}
	for want, frame := range map[string][]byte{
		"wirecodec.frames_full":   wirecodec.AppendCheckout(nil, params, 3, false, -1, nil, nil, false),
		"wirecodec.frames_empty":  wirecodec.AppendCheckout(nil, params, 3, false, 3, nil, nil, false),
		"wirecodec.frames_sparse": wirecodec.AppendCheckout(nil, params, 3, false, 2, []uint32{1}, []float64{2}, false),
		"wirecodec.frames_dense":  wirecodec.AppendCheckout(nil, params, 3, false, 2, []uint32{0, 1, 2, 3}, params, false),
	} {
		if got := frameKind(frame); got != want {
			t.Errorf("frameKind = %s, want %s", got, want)
		}
	}
}

// TestSessionPassesItsChecks runs a whole tiny session over loopback HTTP,
// on both wires, with every check on.
func TestSessionPassesItsChecks(t *testing.T) {
	for _, wire := range []transport.WireFormat{transport.WireJSON, transport.WireBinaryDelta} {
		w := tiny
		w.wire = wire
		ops := newOpCounts()
		res, _, err := runSession(context.Background(), w, 3, filepath.Join(t.TempDir(), "s"), ops, sessionOpts{})
		if err != nil {
			t.Fatalf("%s: %v", wire, err)
		}
		if res.acked != w.cycles || res.answered != w.cycles*w.pollsPerCycle() {
			t.Fatalf("%s: %d checkins, %d checkouts", wire, res.acked, res.answered)
		}
		for op, n := range ops.failed {
			t.Errorf("%s: %d %s operations failed", wire, n, op)
		}
	}
}
