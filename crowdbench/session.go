package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/replica"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/transport"
)

const (
	taskID    = "crowd"
	enrollKey = "bench-join"
	// checkpointEvery is crowdml-server's -checkpoint-every default; no
	// session runs that long, so restore and catch-up replay the whole
	// journal.
	checkpointEvery = time.Minute
	// phaseTimeout bounds the follower catch-up wait.
	phaseTimeout = 60 * time.Second
	// phaseRounds is how many times a session restores a crashed copy
	// and catches a fresh follower up.
	phaseRounds = 3
)

// serverConfig is the task configuration crowdml-server builds from its
// defaults for this shape: logistic regression, SGD with η(t) = 10/√t.
func serverConfig(w workload) core.ServerConfig {
	return core.ServerConfig{
		Model:   model.NewLogisticRegression(w.classes, w.dim),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: learningRate}},
	}
}

// durableOptions are the task options crowdml-server passes with
// -state-dir and its defaults: metrics on, checkpoint every minute, no
// fsync, keep every segment.
func durableOptions(st store.Store, reg *telemetry.Registry) []hub.TaskOption {
	return []hub.TaskOption{
		hub.AsDefault(),
		hub.WithMetrics(reg),
		hub.WithStore(st),
		hub.WithCheckpointPolicy(hub.CheckpointPolicy{Every: checkpointEvery}),
		hub.WithSyncPolicy(hub.SyncNone),
		hub.WithRetention(hub.KeepAll),
	}
}

// newHandler is the handler crowdml-server mounts: enrollment and
// telemetry on.
func newHandler(h *hub.Hub, reg *telemetry.Registry) http.Handler {
	hd := transport.NewHandler(h)
	hd.EnableEnrollment(enrollKey)
	hd.EnableMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/", hd)
	return mux
}

// leader is the deployed stack: a durable hub task on a FileStore behind
// the HTTP handler, served over loopback.
type leader struct {
	hub      *hub.Hub
	task     *hub.Task
	storeDir string
	url      string
	server   *http.Server
	served   chan error
}

func startLeader(ctx context.Context, w workload, dir string) (*leader, error) {
	storeDir := filepath.Join(dir, "leader", taskID)
	fs, err := store.NewFileStore(storeDir)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	h := hub.New()
	task, err := h.CreateTask(ctx, taskID, serverConfig(w), durableOptions(fs, reg)...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = h.Close(ctx)
		return nil, err
	}
	l := &leader{
		hub: h, task: task, storeDir: storeDir,
		url:    "http://" + ln.Addr().String(),
		server: &http.Server{Handler: newHandler(h, reg), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { l.served <- l.server.Serve(ln) }()
	return l, nil
}

func (l *leader) close(ctx context.Context) error {
	err := l.server.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, l.hub.Close(ctx))
}

// newLoopbackClient returns an HTTP client whose connections count their
// bytes into nc; traced runs also classify binary checkout frames.
func newLoopbackClient(nc *netCounter, tr *tracer) (*http.Client, *http.Transport) {
	t := &http.Transport{
		DialContext:         nc.dial,
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &frameCounter{next: t, tr: tr}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}, t
}

// sessionResult holds one session's raw measurements.
type sessionResult struct {
	setup       round
	traffic     round
	acked       int
	answered    int
	checkinP50  time.Duration
	checkoutP50 time.Duration
	blocks      []block
	allocBytes  uint64
	wireBytes   int64
	diskBytes   int64
	restores    []round // one per phase round
	catchups    []round
	testErr     float64
	leaderState *core.ServerState
}

// sessionOpts are the traced run's additions to a session.
type sessionOpts struct {
	tr *tracer
	// profile names the files the traffic phase's CPU and allocation
	// profiles are written to ("" writes none).
	profile string
	// beforeTeardown runs with the leader still serving, after the
	// crash-restore and catch-up phases.
	beforeTeardown func(ctx context.Context, l *leader, st *core.ServerState) error
}

// runSession runs one whole Crowd-ML session: set-up, timed traffic,
// crash-restore, follower catch-up, and the checks on every output.
func runSession(ctx context.Context, w workload, seed uint64, dir string, ops *opCounts, opt sessionOpts) (res *sessionResult, in *inputs, err error) {
	tr := opt.tr
	res = &sessionResult{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// 1. Set-up: inputs, the deployed stack, the crowd registered over HTTP.
	t0, steal0 := time.Now(), stealTicks()
	in, err = makeInputs(w, seed)
	if err != nil {
		return nil, nil, err
	}
	l, err := startLeader(ctx, w, dir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if cerr := l.close(cctx); cerr != nil && err == nil {
			err = fmt.Errorf("leader shutdown: %w", cerr)
		}
	}()
	nc := &netCounter{}
	httpc, httpt := newLoopbackClient(nc, tr)
	defer httpt.CloseIdleConnections()
	base := transport.NewHTTPClient(l.url, httpc).WithTask(taskID)
	noise := in.noiseStreams()
	devs := make([]*vdev, w.devices)
	for i := range devs {
		c := base
		if w.wire != transport.WireJSON {
			c = base.WithWire(w.wire) // a fresh delta base per device
		}
		d := &vdev{id: deviceID(i), noise: noise[i], client: c}
		sp := tr.begin("transport.register")
		d.token, err = c.Register(ctx, d.id, enrollKey)
		tr.end(sp)
		ops.record("register", err)
		if err != nil {
			return nil, nil, fmt.Errorf("register %s: %w", d.id, err)
		}
		devs[i] = d
	}
	res.setup = round{time.Since(t0), stealTicks() - steal0}

	// 2. Timed traffic: the fixed device work, one request in flight.
	m := serverConfig(w).Model
	ref := newReference(w.classes, w.dim)
	stopProfile, err := startProfile(opt.profile)
	if err != nil {
		return nil, nil, err
	}
	allocSample := newTracer().sample
	runtime.GC() // every timed phase starts from a collected heap
	alloc0, wire0 := heapAllocs(allocSample), nc.total()
	t1, steal1 := time.Now(), stealTicks()
	traffic, err := drive(ctx, in, m, devs, &httpBackend{tr: tr, net: nc}, ref, tr, ops)
	res.traffic = round{time.Since(t1), stealTicks() - steal1}
	res.allocBytes = heapAllocs(allocSample) - alloc0
	res.wireBytes = nc.total() - wire0
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return nil, nil, err
	}
	res.acked, res.answered, res.blocks = traffic.acked, traffic.answered, traffic.blocks
	res.checkinP50 = medianDur(traffic.checkinLat)
	res.checkoutP50 = medianDur(traffic.checkoutLat)
	if res.acked == 0 {
		return nil, nil, fmt.Errorf("no checkin was acknowledged: %v", traffic.lastErr)
	}
	if res.diskBytes, err = dirBytes(l.storeDir); err != nil {
		return nil, nil, err
	}
	leaderState := l.task.Server().ExportState()
	res.leaderState = leaderState
	if err := ref.checkLeader(leaderState, res.acked, w.minibatch); err != nil {
		return nil, nil, errCheck{err}
	}

	// 3. Crash-restore: copy the store as the crash left it, restore it.
	// 4. Follower catch-up from empty to the leader's iteration.
	// Each is repeated phaseRounds times; every round is checked.
	for r := 0; r < phaseRounds; r++ {
		crashDir := filepath.Join(dir, fmt.Sprintf("crash-%d", r))
		if err := copyDir(l.storeDir, filepath.Join(crashDir, taskID)); err != nil {
			return nil, nil, err
		}
		steal0 := stealTicks()
		restored, dur, err := restoreCopy(ctx, w, crashDir, tr)
		ops.record("restore", err)
		if err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(crashDir); err != nil {
			return nil, nil, err
		}
		res.restores = append(res.restores, round{dur, stealTicks() - steal0})
		if err := checkSameState("restored leader", leaderState, restored); err != nil {
			return nil, nil, errCheck{err}
		}
	}
	for r := 0; r < phaseRounds; r++ {
		steal0 := stealTicks()
		follower, dur, err := catchUp(ctx, w, l.url, leaderState.Iteration, tr)
		ops.record("catchup", err)
		if err != nil {
			return nil, nil, err
		}
		res.catchups = append(res.catchups, round{dur, stealTicks() - steal0})
		if err := checkSameState("follower", leaderState, follower); err != nil {
			return nil, nil, errCheck{err}
		}
	}

	if opt.beforeTeardown != nil {
		if err := opt.beforeTeardown(ctx, l, leaderState); err != nil {
			return nil, nil, err
		}
	}

	classes, dim := m.Shape()
	wm, err := linalg.NewMatrixFrom(classes, dim, leaderState.Params)
	if err != nil {
		return nil, nil, err
	}
	res.testErr = metrics.TestError(m, wm, in.test)
	return res, in, nil
}

// restoreCopy times hub.Restore on a crashed copy of the leader's store
// and returns the restored learning state.
func restoreCopy(ctx context.Context, w workload, crashDir string, tr *tracer) (*core.ServerState, time.Duration, error) {
	root, err := store.NewFileRoot(crashDir)
	if err != nil {
		return nil, 0, err
	}
	reg := telemetry.NewRegistry()
	h := hub.New()
	configure := func(string) (core.ServerConfig, []hub.TaskOption, error) {
		return serverConfig(w), []hub.TaskOption{
			hub.WithMetrics(reg),
			hub.WithCheckpointPolicy(hub.CheckpointPolicy{Every: checkpointEvery}),
			hub.WithSyncPolicy(hub.SyncNone),
		}, nil
	}
	runtime.GC()
	sp := tr.begin("hub.restore")
	t0 := time.Now()
	tasks, err := h.Restore(ctx, root, configure)
	dur := time.Since(t0)
	tr.end(sp)
	defer h.Close(ctx)
	if err != nil {
		return nil, 0, err
	}
	if len(tasks) != 1 {
		return nil, 0, fmt.Errorf("restore found %d tasks, want 1", len(tasks))
	}
	return tasks[0].Server().ExportState(), dur, nil
}

// catchUp times a replica follower, configured as crowdml-server -follow
// does, from empty to the leader's iteration.
func catchUp(ctx context.Context, w workload, leaderURL string, target int, tr *tracer) (*core.ServerState, time.Duration, error) {
	ht := &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: 90 * time.Second}
	defer ht.CloseIdleConnections()
	feed := transport.NewHTTPClient(leaderURL, &http.Client{Transport: ht, Timeout: 30 * time.Second}).
		WithTask(taskID).
		WithRetry(transport.RetryPolicy{})
	cfg := serverConfig(w)
	cfg.AuthFallback = feed.AuthProbe
	reg := telemetry.NewRegistry()
	h := hub.New()
	defer h.Close(ctx)
	task, err := h.CreateTask(ctx, taskID, cfg, hub.AsReplicaOf(leaderURL), hub.WithMetrics(reg))
	if err != nil {
		return nil, 0, err
	}
	r, err := replica.New(replica.Config{Task: task, Feed: feed, PollInterval: 250 * time.Millisecond, Metrics: reg})
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	sp := tr.begin("replica.catchup")
	t0 := time.Now()
	r.Start(ctx)
	defer r.Stop()
	for task.Server().Iteration() < target {
		if time.Since(t0) > phaseTimeout {
			tr.end(sp)
			return nil, 0, fmt.Errorf("follower at iteration %d after %v, leader at %d",
				task.Server().Iteration(), phaseTimeout, target)
		}
		time.Sleep(100 * time.Microsecond)
	}
	dur := time.Since(t0)
	tr.end(sp)
	return task.Server().ExportState(), dur, nil
}

// startProfile starts a CPU profile and returns the function that stops
// it and writes the allocation profile next to it.
func startProfile(prefix string) (func() error, error) {
	if prefix == "" {
		return func() error { return nil }, nil
	}
	if err := writeHeapProfile(prefix + ".allocs-base.pprof"); err != nil {
		return nil, err
	}
	f, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return errors.Join(f.Close(), writeHeapProfile(prefix+".allocs.pprof"))
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
}
