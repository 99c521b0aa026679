// Command crowdbench runs whole Crowd-ML sessions against the stack
// crowdml-server deploys with its defaults (a durable hub task on a
// FileStore behind the HTTP handler, over loopback) and reports
// end-to-end metrics, or, with -trace 1, the per-layer ladder. See
// README.md.
//
//	crowdbench -workload mnist-json-durable -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/crowdml/crowdml/internal/baseline"
	"github.com/crowdml/crowdml/internal/model"
)

// Session-loop bounds: at least minSessions sessions per run (medians need
// them), and no new session once the run has used maxRun.
const (
	minSessions = 3
	maxRun      = 140 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "mnist-json-durable", "workload to run")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 20, "how long one run keeps starting sessions")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end sessions")
		workdir = flag.String("workdir", ".bench_build", "directory for session stores and profiles")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	ctx := context.Background()
	steal0 := stealTicks()
	start := time.Now()
	ops := newOpCounts()
	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, w, *seed, runDir, filepath.Join(*workdir, "profiles"), ops)
	} else {
		res, err = runSessions(ctx, w, *seed, time.Duration(*seconds)*time.Second, runDir, ops)
	}
	printDiagnostics(w, *seed, ops, steal0, time.Since(start))
	var check errCheck
	if errors.As(err, &check) {
		fmt.Println("# check failed:", check.err)
		res = &result{Correct: false, Metrics: map[string]metric{}}
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		return 1
	}
	for op, n := range ops.attempted {
		res.Attempted += n
		res.Failed += ops.failed[op]
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runSessions repeats whole sessions on the same inputs until the run
// length is used, and reports the median of every end-to-end metric.
func runSessions(ctx context.Context, w workload, seed uint64, length time.Duration, runDir string, ops *opCounts) (*result, error) {
	start := time.Now()
	var sessions []*sessionResult
	var batchErr float64
	var last time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if len(sessions) >= minSessions && (elapsed+last > length || elapsed+last > maxRun) {
			break
		}
		s0 := time.Now()
		s, in, err := runSession(ctx, w, seed, filepath.Join(runDir, fmt.Sprintf("session-%d", i)), ops, sessionOpts{})
		if err != nil {
			return nil, err
		}
		last = time.Since(s0)
		if i == 0 {
			if batchErr, err = batchBaseline(w, in); err != nil {
				return nil, err
			}
		}
		if err := checkTestError(s.testErr, batchErr, w.classes); err != nil {
			return nil, errCheck{err}
		}
		fmt.Printf("# session %d: setup %.3fs traffic %.3fs (%d checkins, %d checkouts) restore %v catch-up %v test error %.4f (batch %.4f)\n",
			i, s.setup.wall.Seconds(), s.traffic.wall.Seconds(), s.acked, s.answered,
			s.restores, s.catchups, s.testErr, batchErr)
		sessions = append(sessions, s)
	}
	return &result{Correct: true, Metrics: endToEnd(sessions)}, nil
}

// endToEnd reduces the sessions of a run to the end-to-end metrics:
// traffic rates and CPU are the median over every block of every session,
// restore and catch-up rates the median over every round, the other
// figures the median over sessions; max_rss_mb is the run's peak resident
// set. Every time is taken net of host steal (see round.own).
// Every session acknowledges every checkin, so its journal holds s.acked
// entries.
func endToEnd(sessions []*sessionResult) map[string]metric {
	pick := func(f func(s *sessionResult) float64) float64 {
		xs := make([]float64, len(sessions))
		for i, s := range sessions {
			xs[i] = f(s)
		}
		return median(xs)
	}
	perBlock := func(f func(b block) float64) float64 {
		var xs []float64
		for _, s := range sessions {
			for _, b := range s.blocks {
				xs = append(xs, f(b))
			}
		}
		return median(xs)
	}
	perRound := func(f func(s *sessionResult) []round) float64 {
		var xs []float64
		for _, s := range sessions {
			for _, r := range f(s) {
				xs = append(xs, float64(s.acked)/r.own().Seconds())
			}
		}
		return median(xs)
	}
	perCheckin := func(v float64, s *sessionResult) float64 { return v / float64(s.acked) }
	return map[string]metric{
		"setup_s":            {pick(func(s *sessionResult) float64 { return s.setup.own().Seconds() }), "s"},
		"checkins_per_s":     {perBlock(func(b block) float64 { return float64(b.checkins) / b.own().Seconds() }), "1/s"},
		"checkouts_per_s":    {perBlock(func(b block) float64 { return float64(b.answers) / b.own().Seconds() }), "1/s"},
		"cpu_ms_per_checkin": {perBlock(func(b block) float64 { return ms(b.cpu) * b.ownShare() / float64(b.checkins) }), "ms"},
		"checkin_p50_ms":     {pick(func(s *sessionResult) float64 { return ms(s.checkinP50) * s.traffic.ownShare() }), "ms"},
		"checkout_p50_ms":    {pick(func(s *sessionResult) float64 { return ms(s.checkoutP50) * s.traffic.ownShare() }), "ms"},
		"alloc_kb_per_checkin": {pick(func(s *sessionResult) float64 {
			return perCheckin(float64(s.allocBytes)/1024, s)
		}), "KiB"},
		"wire_kb_per_checkin": {pick(func(s *sessionResult) float64 {
			return perCheckin(float64(s.wireBytes)/1024, s)
		}), "KiB"},
		"disk_kb_per_checkin": {pick(func(s *sessionResult) float64 {
			return perCheckin(float64(s.diskBytes)/1024, s)
		}), "KiB"},
		"restore_entries_per_s": {perRound(func(s *sessionResult) []round { return s.restores }), "1/s"},
		"catchup_entries_per_s": {perRound(func(s *sessionResult) []round { return s.catchups }), "1/s"},
		"max_rss_mb":            {float64(maxRSSBytes()) / (1 << 20), "MiB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batchBaseline trains the centralized, non-private batch learner on (a
// prefix of) the same training data and returns its test error.
func batchBaseline(w workload, in *inputs) (float64, error) {
	train := in.train
	if n := 800000 / w.dim; len(train) > n {
		train = train[:n] // bounds the baseline's cost at the pixel shape
	}
	return baseline.RunBatch(baseline.BatchConfig{
		Model: model.NewLogisticRegression(w.classes, w.dim),
		Train: train, Test: in.test, Epochs: 100,
	})
}

// printDiagnostics prints what is not a metric but explains one: per-op
// attempted and failed counts, host steal ticks over the run, and the
// machine and toolchain.
func printDiagnostics(w workload, seed uint64, ops *opCounts, steal0 int64, elapsed time.Duration) {
	fmt.Printf("# workload %s seed %d: %d devices, %d checkins per session, minibatch %d, %dx%d model, wire %s, %d checkouts per checkin\n",
		w.name, seed, w.devices, w.cycles, w.minibatch, w.classes, w.dim, w.wire, w.pollsPerCycle())
	for _, op := range sortedKeys(ops.attempted) {
		fmt.Printf("# op %-8s attempted %7d failed %d\n", op, ops.attempted[op], ops.failed[op])
	}
	fmt.Printf("# steal_ticks %d over %.1fs (%d CPUs), nproc %d, GOMAXPROCS %d, %s\n",
		stealTicks()-steal0, elapsed.Seconds(), machineCPUs, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
