package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
	"github.com/crowdml/crowdml/internal/transport"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// vdev is one virtual device: its credentials, its private noise stream,
// and, on the binary-delta wire, its own base model (as a phone keeps).
type vdev struct {
	id     string
	token  string
	noise  *rng.RNG
	client *transport.HTTPClient // the loopback backend's per-device client

	base    []float64 // last model received, for in-process delta decoding
	baseVer int
	hasBase bool
}

// computeCheckin is Device Routines 2–3: the minibatch gradient at the
// checked-out model, the error and label counts, and their Laplace
// sanitization.
func computeCheckin(m model.Model, co *core.CheckoutResponse, batch []model.Sample, noise *rng.RNG) (*core.CheckinRequest, error) {
	classes, dim := m.Shape()
	w, err := linalg.NewMatrixFrom(classes, dim, co.Params)
	if err != nil {
		return nil, err
	}
	g := optimizer.AverageGradient(m, w, batch, 0)
	errCount := 0
	labels := make([]int, classes)
	for _, s := range batch {
		if m.Misclassified(w, s) {
			errCount++
		}
		labels[s.Y]++
	}
	b := budget()
	privacy.PerturbGradient(g, len(batch), m.GradientSensitivity(), b.Gradient, noise)
	return &core.CheckinRequest{
		Grad:        g.Data(),
		NumSamples:  len(batch),
		ErrCount:    privacy.SanitizeCount(errCount, b.ErrCount, noise),
		LabelCounts: privacy.SanitizeCounts(labels, b.LabelCount, noise),
		Version:     co.Version,
	}, nil
}

// backend is one layer the device traffic can be driven against.
type backend interface {
	checkout(ctx context.Context, d *vdev) (*core.CheckoutResponse, error)
	checkin(ctx context.Context, d *vdev, req *core.CheckinRequest) error
}

// opCounts tallies attempted and failed operations by kind.
type opCounts struct {
	attempted map[string]int
	failed    map[string]int
}

func newOpCounts() *opCounts {
	return &opCounts{attempted: map[string]int{}, failed: map[string]int{}}
}

func (o *opCounts) record(op string, err error) {
	o.attempted[op]++
	if err != nil {
		o.failed[op]++
	}
}

// trafficResult is what one pass of device traffic produced.
type trafficResult struct {
	acked       int
	answered    int // checkouts and polls answered
	checkinLat  []time.Duration
	checkoutLat []time.Duration
	blocks      []block
	lastErr     error
}

// blocksPerPass is how many equal blocks of cycles a traffic pass is
// measured in: throughput and CPU are taken per block, so a burst of host
// steal spoils one block instead of the whole pass.
const blocksPerPass = 10

// block is one contiguous run of cycles.
type block struct {
	round
	cpu               time.Duration
	checkins, answers int
}

// errCheck marks a correctness failure (as opposed to a failed operation).
type errCheck struct{ err error }

func (e errCheck) Error() string { return "check failed: " + e.err.Error() }

// drive runs the workload's fixed device work against be, one request in
// flight, verifying every received model and folding every acknowledged
// checkin into ref. Each cycle: the watchers poll once, the writer (the
// devices in round-robin) checks out writerPolls times, computes its
// sanitized gradient on the last model and checks in.
func drive(ctx context.Context, in *inputs, m model.Model, devs []*vdev, be backend, ref *reference, tr *tracer, ops *opCounts) (*trafficResult, error) {
	w := in.w
	res := &trafficResult{
		checkinLat:  make([]time.Duration, 0, w.cycles),
		checkoutLat: make([]time.Duration, 0, w.cycles*w.pollsPerCycle()),
	}
	checkout := func(d *vdev, op string) *core.CheckoutResponse {
		t0 := time.Now()
		co, err := be.checkout(ctx, d)
		lat := time.Since(t0)
		ops.record(op, err)
		if err != nil {
			res.lastErr = err
			return nil
		}
		res.answered++
		res.checkoutLat = append(res.checkoutLat, lat)
		return co
	}
	blockLen := max(1, w.cycles/blocksPerPass)
	blockStart, cpuStart, stealStart, acked0, answered0 := time.Now(), cpuTime(), stealTicks(), 0, 0
	closeBlock := func() {
		now, cpu, steal := time.Now(), cpuTime(), stealTicks()
		res.blocks = append(res.blocks, block{
			round: round{now.Sub(blockStart), steal - stealStart}, cpu: cpu - cpuStart,
			checkins: res.acked - acked0, answers: res.answered - answered0,
		})
		blockStart, cpuStart, stealStart, acked0, answered0 = now, cpu, steal, res.acked, res.answered
	}
	// cycle runs cycle k; the span around it makes the device's calls into
	// the stack its children, so its self time is the benchmark's own
	// bookkeeping.
	cycle := func(k int) error {
		for j := 0; j < w.watchers; j++ {
			if co := checkout(devs[j], "poll"); co != nil {
				if err := ref.checkPoll(co.Version, co.Params); err != nil {
					return errCheck{err}
				}
			}
		}
		d := devs[k%len(devs)]
		var co *core.CheckoutResponse
		for p := 0; p < w.writerPolls; p++ {
			op := "poll"
			if p == w.writerPolls-1 {
				op = "checkout"
			}
			if co = checkout(d, op); co != nil {
				if err := ref.checkPoll(co.Version, co.Params); err != nil {
					return errCheck{err}
				}
			}
		}
		if co == nil {
			return nil
		}
		sp := tr.begin("device.compute")
		req, err := computeCheckin(m, co, in.batches[k], d.noise)
		tr.end(sp)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = be.checkin(ctx, d, req)
		lat := time.Since(t0)
		ops.record("checkin", err)
		if err != nil {
			res.lastErr = err
			return nil
		}
		res.checkinLat = append(res.checkinLat, lat)
		res.acked++
		ref.apply(d.id, req)
		return nil
	}
	for k := 0; k < w.cycles; k++ {
		if k > 0 && k%blockLen == 0 {
			closeBlock()
		}
		sp := tr.begin("cycle")
		err := cycle(k)
		tr.end(sp)
		if err != nil {
			return res, err
		}
	}
	closeBlock()
	return res, nil
}

// --- loopback HTTP: the deployed path ---

type httpBackend struct {
	tr  *tracer
	net *netCounter
}

func (b *httpBackend) checkout(ctx context.Context, d *vdev) (*core.CheckoutResponse, error) {
	n0 := b.net.total()
	sp := b.tr.begin("transport.http_checkout")
	co, err := d.client.Checkout(ctx, d.id, d.token)
	b.tr.end(sp)
	if b.tr != nil {
		b.tr.add("transport.wire_bytes_checkout", float64(b.net.total()-n0))
	}
	return co, err
}

func (b *httpBackend) checkin(ctx context.Context, d *vdev, req *core.CheckinRequest) error {
	n0 := b.net.total()
	sp := b.tr.begin("transport.http_checkin")
	err := d.client.Checkin(ctx, d.id, d.token, req)
	b.tr.end(sp)
	if b.tr != nil {
		b.tr.add("transport.wire_bytes_checkin", float64(b.net.total()-n0))
	}
	return err
}

// frameCounter classifies every binary checkout frame the client receives
// (empty, sparse or dense delta, or full) from its 32-byte header.
type frameCounter struct {
	next http.RoundTripper
	tr   *tracer
}

func (f *frameCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(r)
	if err != nil || resp.Header.Get("Content-Type") != transport.ContentTypeBinary || r.Method != http.MethodGet {
		return resp, err
	}
	resp.Body = &framePeek{ReadCloser: resp.Body, tr: f.tr}
	return resp, nil
}

type framePeek struct {
	io.ReadCloser
	tr   *tracer
	head []byte
}

func (p *framePeek) Read(b []byte) (int, error) {
	n, err := p.ReadCloser.Read(b)
	if need := 32 - len(p.head); need > 0 {
		if n < need {
			need = n
		}
		p.head = append(p.head, b[:need]...)
	}
	return n, err
}

func (p *framePeek) Close() error {
	if len(p.head) == 32 {
		p.tr.add(frameKind(p.head), 1)
	}
	return p.ReadCloser.Close()
}

// frameKind names a checkout frame by its header: kind byte 5, flags
// uint16 at 6, payload count uint32 at 28.
func frameKind(h []byte) string {
	kind, flags := h[5], uint16(h[6])|uint16(h[7])<<8
	count := uint32(h[28]) | uint32(h[29])<<8 | uint32(h[30])<<16 | uint32(h[31])<<24
	switch {
	case kind == wirecodec.KindFull:
		return "wirecodec.frames_full"
	case flags&wirecodec.FlagSparse == 0:
		return "wirecodec.frames_dense"
	case count == 0:
		return "wirecodec.frames_empty"
	default:
		return "wirecodec.frames_sparse"
	}
}

// --- in-process layers of the ladder ---

// inprocBackend drives a core.Server directly: store-less for the core
// step (with the wire codec timed around it), or a durable hub task's
// server for the hub step.
type inprocBackend struct {
	srv   *core.Server
	layer string // "core" or "hub": the span prefix
	wire  transport.WireFormat
	codec bool // time the codec around each call (the core step)
	tr    *tracer
	buf   []byte
}

func (b *inprocBackend) checkout(ctx context.Context, d *vdev) (*core.CheckoutResponse, error) {
	var co *core.CheckoutResponse
	if b.wire == transport.WireJSON {
		sp := b.tr.begin(b.layer + ".checkout")
		resp, err := b.srv.Checkout(ctx, d.id, d.token)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		co = resp
		if b.codec {
			// The other checkout form, on an already published snapshot.
			sp = b.tr.begin("core.checkout_delta")
			_, err = b.srv.CheckoutDelta(ctx, d.id, d.token, d.sinceOrFull())
			b.tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = b.tr.begin("codec.checkout_encode")
			b.buf, err = json.Marshal(resp)
			b.tr.end(sp)
			if err != nil {
				return nil, err
			}
			b.tr.add("codec.checkout_bytes", float64(len(b.buf)))
			co = new(core.CheckoutResponse)
			sp = b.tr.begin("codec.checkout_decode")
			err = json.Unmarshal(b.buf, co)
			b.tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		d.remember(co.Params, co.Version)
		return co, nil
	}
	sp := b.tr.begin(b.layer + ".checkout_delta")
	pd, err := b.srv.CheckoutDelta(ctx, d.id, d.token, d.sinceOrFull())
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !b.codec {
		co = &core.CheckoutResponse{Params: linalg.Copy(pd.Params), Version: pd.Version, Done: pd.Done}
		d.remember(co.Params, co.Version)
		return co, nil
	}
	sp = b.tr.begin("core.checkout")
	_, err = b.srv.Checkout(ctx, d.id, d.token)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("codec.checkout_encode")
	b.buf = wirecodec.AppendCheckout(b.buf[:0], pd.Params, pd.Version, pd.Done, pd.Since, pd.Indices, pd.Values, false)
	b.tr.end(sp)
	b.tr.add("codec.checkout_bytes", float64(len(b.buf)))
	sp = b.tr.begin("codec.checkout_decode")
	co, err = d.decodeFrame(b.buf)
	b.tr.end(sp)
	return co, err
}

func (b *inprocBackend) checkin(ctx context.Context, d *vdev, req *core.CheckinRequest) error {
	if b.codec {
		sp := b.tr.begin("codec.checkin_encode")
		var err error
		b.buf, err = encodeCheckin(b.wire, b.buf, req)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		b.tr.add("codec.checkin_bytes", float64(len(b.buf)))
		sp = b.tr.begin("codec.checkin_decode")
		req, err = decodeCheckin(b.wire, b.buf)
		b.tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := b.tr.begin(b.layer + ".checkin")
	err := b.srv.Checkin(ctx, d.id, d.token, req)
	b.tr.end(sp)
	return err
}

// encodeCheckin encodes a checkin body in the wire format, as HTTPClient
// does, appending binary frames to dst.
func encodeCheckin(wire transport.WireFormat, dst []byte, req *core.CheckinRequest) ([]byte, error) {
	if wire == transport.WireJSON {
		return json.Marshal(req)
	}
	return wirecodec.AppendCheckin(dst[:0], req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts, false), nil
}

// decodeCheckin decodes a checkin body as the handler does.
func decodeCheckin(wire transport.WireFormat, raw []byte) (*core.CheckinRequest, error) {
	if wire == transport.WireJSON {
		var req core.CheckinRequest
		err := json.Unmarshal(raw, &req)
		return &req, err
	}
	fr, err := wirecodec.Decode(raw)
	if err != nil {
		return nil, err
	}
	return &core.CheckinRequest{
		Grad: fr.Values, NumSamples: fr.NumSamples, ErrCount: fr.ErrCount,
		LabelCounts: fr.LabelCounts, Version: fr.Version,
	}, nil
}

// handlerBackend drives transport.Handler.ServeHTTP in process, without a
// socket; the device side encodes and decodes as HTTPClient does.
type handlerBackend struct {
	h      http.Handler
	taskID string
	wire   transport.WireFormat
	tr     *tracer
}

func (b *handlerBackend) checkout(_ context.Context, d *vdev) (*core.CheckoutResponse, error) {
	url := "/v1/tasks/" + b.taskID + "/checkout"
	if b.wire == transport.WireBinaryDelta && d.hasBase {
		url += "?since=" + strconv.Itoa(d.baseVer)
	}
	r := httptest.NewRequest(http.MethodGet, url, nil)
	r.Header.Set("X-Crowdml-Device", d.id)
	r.Header.Set("X-Crowdml-Token", d.token)
	if b.wire != transport.WireJSON {
		r.Header.Set("Accept", transport.ContentTypeBinary)
	}
	rec := httptest.NewRecorder()
	sp := b.tr.begin("transport.handler_checkout")
	b.h.ServeHTTP(rec, r)
	b.tr.end(sp)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("handler checkout: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if b.wire == transport.WireJSON {
		var co core.CheckoutResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &co); err != nil {
			return nil, err
		}
		return &co, nil
	}
	return d.decodeFrame(rec.Body.Bytes())
}

func (b *handlerBackend) checkin(_ context.Context, d *vdev, req *core.CheckinRequest) error {
	body, err := encodeCheckin(b.wire, nil, req)
	if err != nil {
		return err
	}
	ct := "application/json"
	if b.wire != transport.WireJSON {
		ct = transport.ContentTypeBinary
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/tasks/"+b.taskID+"/checkin", bytes.NewReader(body))
	r.Header.Set("Content-Type", ct)
	r.Header.Set("X-Crowdml-Device", d.id)
	r.Header.Set("X-Crowdml-Token", d.token)
	rec := httptest.NewRecorder()
	sp := b.tr.begin("transport.handler_checkin")
	b.h.ServeHTTP(rec, r)
	b.tr.end(sp)
	if rec.Code != http.StatusNoContent {
		return fmt.Errorf("handler checkin: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return nil
}

// sinceOrFull is the delta base a binary-delta checkout asks for.
func (d *vdev) sinceOrFull() int {
	if d.hasBase {
		return d.baseVer
	}
	return -1
}

func (d *vdev) remember(params []float64, version int) {
	d.base = append(d.base[:0], params...)
	d.baseVer = version
	d.hasBase = true
}

// decodeFrame decodes a checkout frame against the device's own base, as
// HTTPClient does, and keeps the result as the new base.
func (d *vdev) decodeFrame(raw []byte) (*core.CheckoutResponse, error) {
	fr, err := wirecodec.Decode(raw)
	if err != nil {
		return nil, err
	}
	var params []float64
	switch {
	case fr.Kind == wirecodec.KindFull:
		params = fr.Values
	case fr.Kind == wirecodec.KindDelta && fr.Sparse:
		if !d.hasBase || d.baseVer != fr.Since {
			return nil, fmt.Errorf("delta against %d, device base %d", fr.Since, d.baseVer)
		}
		params, err = wirecodec.ApplyDelta(d.base, fr)
	case fr.Kind == wirecodec.KindDelta:
		params, err = wirecodec.ApplyDelta(nil, fr)
	default:
		return nil, fmt.Errorf("unexpected frame kind %d", fr.Kind)
	}
	if err != nil {
		return nil, err
	}
	d.remember(params, fr.Version)
	return &core.CheckoutResponse{Params: params, Version: fr.Version, Done: fr.Done}, nil
}
