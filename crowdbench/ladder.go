package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/transport"
)

// checkpointRounds is how many times the ladder saves and loads the
// leader's checkpoint.
const checkpointRounds = 5

// runTraced is the per-layer run: one untraced session (the end-to-end
// base the tracing overhead is measured against), one traced session with
// CPU and allocation profiles of its traffic phase and the store/feed
// ladder on its leader, then the same device work through each
// in-process layer — codec + core.Server, the durable hub task, and
// transport.Handler.ServeHTTP. Every pass is checked against its own
// reference, and every pass must end on the traced leader's parameters.
func runTraced(ctx context.Context, w workload, seed uint64, runDir, profDir string, ops *opCounts) (*result, error) {
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	plain, _, err := runSession(ctx, w, seed, filepath.Join(runDir, "plain"), ops, sessionOpts{})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var sl storeLadder
	traced, in, err := runSession(ctx, w, seed, filepath.Join(runDir, "traced"), ops, sessionOpts{
		tr:      tr,
		profile: filepath.Join(profDir, w.name),
		beforeTeardown: func(ctx context.Context, l *leader, st *core.ServerState) error {
			return sl.run(ctx, w, l, st, tr, filepath.Join(runDir, "store-ladder"))
		},
	})
	if err != nil {
		return nil, err
	}
	for _, layer := range []string{"core", "hub", "handler"} {
		if err := ladderPass(ctx, w, in, layer, filepath.Join(runDir, "ladder-"+layer), traced.leaderState, tr, ops); err != nil {
			return nil, fmt.Errorf("%s ladder: %w", layer, err)
		}
	}
	st := tr.stats()
	printSpanTable(st)
	printLadder(w, st)
	printOverhead(plain, traced)
	fmt.Printf("# profiles of the traced traffic phase: %s.{cpu,allocs,allocs-base}.pprof\n", filepath.Join(profDir, w.name))
	return &result{Correct: true, Metrics: perLayer(w, tr, st, &sl, traced)}, nil
}

// ladderPass drives the workload's device work through one in-process
// layer, with spans around every call into it.
func ladderPass(ctx context.Context, w workload, in *inputs, layer, dir string, leaderState *core.ServerState, tr *tracer, ops *opCounts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var srv *core.Server
	var be backend
	if layer == "core" {
		s, err := core.NewServer(serverConfig(w))
		if err != nil {
			return err
		}
		srv = s
		be = &inprocBackend{srv: srv, layer: "core", wire: w.wire, codec: true, tr: tr}
	} else {
		fs, err := store.NewFileStore(filepath.Join(dir, taskID))
		if err != nil {
			return err
		}
		reg := telemetry.NewRegistry()
		h := hub.New()
		defer h.Close(ctx)
		task, err := h.CreateTask(ctx, taskID, serverConfig(w), durableOptions(fs, reg)...)
		if err != nil {
			return err
		}
		srv = task.Server()
		if layer == "hub" {
			be = &inprocBackend{srv: srv, layer: "hub", wire: w.wire, tr: tr}
		} else {
			be = &handlerBackend{h: newHandler(h, reg), taskID: taskID, wire: w.wire, tr: tr}
		}
	}
	noise := in.noiseStreams()
	devs := make([]*vdev, w.devices)
	for i := range devs {
		tok, err := srv.RegisterDevice(ctx, deviceID(i))
		if err != nil {
			return err
		}
		devs[i] = &vdev{id: deviceID(i), token: tok, noise: noise[i]}
	}
	ref := newReference(w.classes, w.dim)
	res, err := drive(ctx, in, serverConfig(w).Model, devs, be, ref, nil, ops)
	if err != nil {
		return err
	}
	if err := ref.checkLeader(srv.ExportState(), res.acked, w.minibatch); err != nil {
		return errCheck{err}
	}
	return checkSameState(layer+" ladder", leaderState, srv.ExportState())
}

// storeLadder times the restore and feed paths on the traced leader's
// journal, one layer at a time.
type storeLadder struct {
	entries         int
	appendBytes     int64
	checkpointBytes int64
	feedBytes       int
}

func (sl *storeLadder) run(ctx context.Context, w workload, l *leader, leaderState *core.ServerState, tr *tracer, dir string) error {
	defer os.RemoveAll(dir)
	// Journal cursor over the live leader's store.
	fs, err := store.NewFileStore(l.storeDir)
	if err != nil {
		return err
	}
	sp := tr.begin("store.cursor")
	cur, err := fs.OpenCursor(ctx, 0)
	if err != nil {
		return err
	}
	var entries []store.JournalEntry
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			cur.Close()
			return err
		}
		entries = append(entries, e)
	}
	cur.Close()
	tr.end(sp)
	sl.entries = len(entries)
	if sl.entries != leaderState.Iteration {
		return errCheck{fmt.Errorf("journal holds %d entries, leader at iteration %d", sl.entries, leaderState.Iteration)}
	}

	// core.Server.Replay of the materialized entries.
	records := make([]core.ReplayRecord, len(entries))
	for i, e := range entries {
		records[i] = core.ReplayRecord{DeviceID: e.DeviceID, Iteration: e.Iteration, Req: &core.CheckinRequest{
			Grad: e.Grad, NumSamples: e.NumSamples, ErrCount: e.ErrCount, LabelCounts: e.LabelCounts, Version: e.Version,
		}}
	}
	srv, err := core.NewServer(serverConfig(w))
	if err != nil {
		return err
	}
	sp = tr.begin("core.replay")
	_, err = srv.Replay(core.ReplaySlice(records))
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := checkSameState("replayed journal", leaderState, srv.ExportState()); err != nil {
		return errCheck{err}
	}

	// Journal appends into a fresh FileStore.
	afs, err := store.NewFileStore(filepath.Join(dir, "append"))
	if err != nil {
		return err
	}
	j, err := afs.OpenJournal(ctx)
	if err != nil {
		return err
	}
	for _, e := range entries {
		sp := tr.begin("store.append")
		err := j.Append(ctx, e)
		tr.end(sp)
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	if sl.appendBytes, err = dirBytes(afs.Dir()); err != nil {
		return err
	}

	// Checkpoint save and load of the leader's state.
	cfs, err := store.NewFileStore(filepath.Join(dir, "checkpoint"))
	if err != nil {
		return err
	}
	for i := 0; i < checkpointRounds; i++ {
		sp := tr.begin("store.checkpoint_save")
		err := cfs.Save(ctx, leaderState, time.Now())
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("store.checkpoint_load")
		cp, err := cfs.Load(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
		if err := checkSameState("loaded checkpoint", leaderState, cp.State); err != nil {
			return errCheck{err}
		}
	}
	if sl.checkpointBytes, err = dirBytes(cfs.Dir()); err != nil {
		return err
	}

	// The replication feed's JSONL encoding, then a fetch over HTTP.
	var buf bytes.Buffer
	fw := store.NewFeedWriter(&buf)
	sp = tr.begin("store.feed_encode")
	for _, e := range entries {
		if err := fw.WriteEntry(e); err != nil {
			return err
		}
	}
	err = fw.WriteEOS(leaderState.Iteration)
	tr.end(sp)
	if err != nil {
		return err
	}
	sl.feedBytes = buf.Len()
	fr := store.NewFeedReader(bytes.NewReader(buf.Bytes()))
	sp = tr.begin("store.feed_decode")
	n, err := drainFeed(fr.Next)
	tr.end(sp)
	if err != nil || n != sl.entries {
		return fmt.Errorf("feed decode: %d entries, %v", n, err)
	}
	ht := &http.Transport{}
	defer ht.CloseIdleConnections()
	c := transport.NewHTTPClient(l.url, &http.Client{Transport: ht, Timeout: 30 * time.Second}).WithTask(taskID)
	sp = tr.begin("replica.feed_fetch")
	feed, err := c.OpenJournalFeed(ctx, 0)
	if err == nil {
		n, err = drainFeed(feed.Next)
		feed.Close()
	}
	tr.end(sp)
	if err != nil || n != sl.entries {
		return fmt.Errorf("feed fetch: %d entries, %v", n, err)
	}
	return nil
}

func drainFeed(next func() (store.JournalEntry, error)) (int, error) {
	n := 0
	for {
		_, err := next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// perLayer derives the per-layer metrics from the traced run's spans and
// counts. Per-call steps report the median span; whole-stream steps
// report their median span per journal entry. Every timed step also reports
// the heap bytes it allocated, per call or per entry.
func perLayer(w workload, tr *tracer, st map[string]spanStats, sl *storeLadder, traced *sessionResult) map[string]metric {
	out := map[string]metric{}
	perCall := func(metricName, span string, unit time.Duration, unitName string) {
		s := st[span]
		out[metricName] = metric{float64(s.median) / float64(unit), unitName}
		out[span+".alloc_b"] = metric{s.allocMean, "B"}
	}
	perEntry := func(metricName, span string, n int) {
		s := st[span]
		out[metricName] = metric{float64(s.median) / float64(time.Microsecond) / float64(n), "us"}
		out[span+".alloc_b"] = metric{s.allocMean / float64(n), "B"}
	}
	for _, name := range []string{
		"device.compute", "codec.checkin_encode", "codec.checkin_decode",
		"codec.checkout_encode", "codec.checkout_decode",
		"core.checkin", "core.checkout", "core.checkout_delta", "hub.checkin", "store.append",
		"transport.handler_checkin", "transport.handler_checkout",
		"transport.http_checkin", "transport.http_checkout", "transport.register",
	} {
		perCall(name+"_us", name, time.Microsecond, "us")
	}
	for _, name := range []string{"hub.restore", "store.checkpoint_save", "store.checkpoint_load"} {
		perCall(name+"_ms", name, time.Millisecond, "ms")
	}
	for _, name := range []string{"store.cursor", "core.replay", "store.feed_encode", "store.feed_decode", "replica.feed_fetch"} {
		perEntry(name+"_us_per_entry", name, sl.entries)
	}
	perEntry("replica.catchup_us_per_entry", "replica.catchup", traced.acked)

	count := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	count("codec.checkin_bytes", "B", mean(tr.counts["codec.checkin_bytes"]))
	count("codec.checkout_bytes", "B", mean(tr.counts["codec.checkout_bytes"]))
	count("transport.wire_bytes_checkin", "B", mean(tr.counts["transport.wire_bytes_checkin"]))
	count("transport.wire_bytes_checkout", "B", mean(tr.counts["transport.wire_bytes_checkout"]))
	count("store.append_bytes", "B", float64(sl.appendBytes)/float64(sl.entries))
	count("store.checkpoint_bytes", "B", float64(sl.checkpointBytes))
	count("store.feed_bytes_per_entry", "B", float64(sl.feedBytes)/float64(sl.entries))
	for _, kind := range []string{"empty", "sparse", "dense", "full"} {
		name := "wirecodec.frames_" + kind
		count(name, "count", float64(len(tr.counts[name])))
	}
	return out
}

// printSpanTable prints every span name with its count, median and median
// self time (its duration minus its children's).
func printSpanTable(st map[string]spanStats) {
	fmt.Printf("# %-28s %8s %12s %12s %12s\n", "span", "n", "median_us", "self_us", "alloc_b")
	for _, name := range sortedKeys(st) {
		s := st[name]
		fmt.Printf("# %-28s %8d %12.1f %12.1f %12.0f\n", name, s.n,
			float64(s.median)/1e3, float64(s.selfMedian)/1e3, s.allocMean)
	}
}

// printLadder prints the request path one layer at a time: each step's
// median, and its self time as the step minus the step below it.
func printLadder(w workload, st map[string]spanStats) {
	coreCheckout := "core.checkout"
	if w.wire != transport.WireJSON {
		coreCheckout = "core.checkout_delta"
	}
	for _, path := range [][]string{
		{"core.checkin", "hub.checkin", "transport.handler_checkin", "transport.http_checkin"},
		{coreCheckout, "transport.handler_checkout", "transport.http_checkout"},
	} {
		var below time.Duration
		for _, name := range path {
			m := st[name].median
			fmt.Printf("# ladder %-28s %10.1f us  self %10.1f us\n", name, float64(m)/1e3, float64(m-below)/1e3)
			below = m
		}
	}
}

// printOverhead reports the traced session's end-to-end figures against
// the untraced one's: the cost of the spans (and of the CPU profiler,
// which runs during the traced traffic phase).
func printOverhead(plain, traced *sessionResult) {
	rate := func(s *sessionResult) float64 { return float64(s.acked) / s.traffic.own().Seconds() }
	fmt.Printf("# tracing overhead: checkins_per_s %.1f untraced, %.1f traced (%+.1f%%); checkin_p50_ms %.3f untraced, %.3f traced\n",
		rate(plain), rate(traced), 100*(rate(traced)/rate(plain)-1), ms(plain.checkinP50), ms(traced.checkinP50))
}
