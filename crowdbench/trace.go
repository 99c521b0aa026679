package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name   string
	parent int32 // index of the enclosing span, -1 at top level
	start  time.Duration
	end    time.Duration
	alloc  uint64 // process-wide heap bytes allocated while the span was open
}

// tracer records spans in memory until the run ends. A nil *tracer is a
// valid no-op, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
	counts map[string][]float64
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		counts: make(map[string][]float64),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heapAllocs returns the process's cumulative heap allocation in bytes.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, alloc: heapAllocs(t.sample)})
	t.open = append(t.open, id)
	t.spans[id].start = time.Since(t.origin)
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.end = time.Since(t.origin)
	sp.alloc = heapAllocs(t.sample) - sp.alloc
	t.open = t.open[:len(t.open)-1]
}

// add records one observation of a count (bytes of one request, frames
// of one kind) under name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] = append(t.counts[name], v)
}

// spanStats summarizes every span of one name.
type spanStats struct {
	n          int
	median     time.Duration
	selfMedian time.Duration
	allocMean  float64
}

// stats aggregates spans by name. A span's self time is its duration minus
// the time its direct children cover (children never overlap: the
// benchmark makes one call at a time).
func (t *tracer) stats() map[string]spanStats {
	child := make([]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	durs := map[string][]time.Duration{}
	selfs := map[string][]time.Duration{}
	allocs := map[string]uint64{}
	for i, sp := range t.spans {
		d := sp.end - sp.start
		durs[sp.name] = append(durs[sp.name], d)
		selfs[sp.name] = append(selfs[sp.name], d-child[i])
		allocs[sp.name] += sp.alloc
	}
	out := make(map[string]spanStats, len(durs))
	for name, ds := range durs {
		out[name] = spanStats{
			n:          len(ds),
			median:     medianDur(ds),
			selfMedian: medianDur(selfs[name]),
			allocMean:  float64(allocs[name]) / float64(len(ds)),
		}
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
