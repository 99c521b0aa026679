package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/crowdml/crowdml/internal/core"
)

// reference is the benchmark's own model of the leader, computed apart
// from core, hub, store and transport: a plain replay of every
// acknowledged checkin in acknowledgment order (one request is in flight
// at a time, so that is the server's iteration order). It applies
// Algorithm 2's update w ← w − η(t)·ĝ with η(t) = c/√t and sums the
// Eq. (14) counters. The update is the same float64 operations in the
// same order as the server's SGD step, so the parameters must match bit
// for bit; no tolerance is allowed.
type reference struct {
	classes int
	params  []float64
	iter    int
	samples int
	errs    int
	labels  []int
	devices map[string]*refDevice
}

type refDevice struct {
	samples, errs, checkins, staleness int
	labels                             []int
}

func newReference(classes, dim int) *reference {
	return &reference{
		classes: classes,
		params:  make([]float64, classes*dim),
		labels:  make([]int, classes),
		devices: make(map[string]*refDevice),
	}
}

// apply folds one acknowledged checkin into the reference.
func (r *reference) apply(deviceID string, req *core.CheckinRequest) {
	staleness := r.iter - req.Version
	r.iter++
	eta := learningRate / math.Sqrt(float64(r.iter))
	for i, g := range req.Grad {
		r.params[i] += -eta * g
	}
	r.samples += req.NumSamples
	r.errs += req.ErrCount
	for k, c := range req.LabelCounts {
		r.labels[k] += c
	}
	d := r.devices[deviceID]
	if d == nil {
		d = &refDevice{labels: make([]int, r.classes)}
		r.devices[deviceID] = d
	}
	d.samples += req.NumSamples
	d.errs += req.ErrCount
	d.checkins++
	d.staleness += staleness
	for k, c := range req.LabelCounts {
		d.labels[k] += c
	}
}

// checkPoll verifies that a model a device received is the leader's
// published model at that version: with one request in flight the
// leader is exactly at the reference's iteration.
func (r *reference) checkPoll(version int, params []float64) error {
	if version != r.iter {
		return fmt.Errorf("polled version %d, leader is at %d", version, r.iter)
	}
	if i := firstBitDiff(params, r.params); i >= 0 {
		return fmt.Errorf("polled model at version %d differs at coordinate %d", version, i)
	}
	return nil
}

// checkLeader verifies the leader's learning state against the reference:
// parameters bit for bit, the iteration against the acknowledged checkins,
// Σ N_s against acknowledged checkins × minibatch, and every Eq. (14)
// counter, crowd-wide and per device.
func (r *reference) checkLeader(st *core.ServerState, acked, minibatch int) error {
	if st.Iteration != acked || r.iter != acked {
		return fmt.Errorf("leader iteration %d, reference %d, acknowledged checkins %d", st.Iteration, r.iter, acked)
	}
	if st.TotalSamples != acked*minibatch || r.samples != acked*minibatch {
		return fmt.Errorf("leader Σ N_s %d, reference %d, want %d×%d", st.TotalSamples, r.samples, acked, minibatch)
	}
	if st.TotalErrors != r.errs {
		return fmt.Errorf("leader Σ N_e %d, reference %d", st.TotalErrors, r.errs)
	}
	if !equalInts(st.TotalLabelCounts, r.labels) {
		return fmt.Errorf("leader Σ N_y %v, reference %v", st.TotalLabelCounts, r.labels)
	}
	if len(st.Params) != len(r.params) {
		return fmt.Errorf("leader has %d parameters, reference %d", len(st.Params), len(r.params))
	}
	if i := firstBitDiff(st.Params, r.params); i >= 0 {
		return fmt.Errorf("leader parameter %d is %v, reference %v", i, st.Params[i], r.params[i])
	}
	active := 0
	for id, e := range st.Devices {
		if e.Checkins == 0 {
			continue
		}
		active++
		d := r.devices[id]
		if d == nil {
			return fmt.Errorf("leader has checkins from %s, reference none", id)
		}
		if e.Samples != d.samples || e.Errors != d.errs || e.Checkins != d.checkins ||
			e.StalenessSum != d.staleness || !equalInts(e.LabelCounts, d.labels) {
			return fmt.Errorf("device %s counters differ from the reference", id)
		}
	}
	if active != len(r.devices) {
		return fmt.Errorf("leader has %d devices with checkins, reference %d", active, len(r.devices))
	}
	return nil
}

// checkSameState verifies that got (a crash-restored server, a caught-up
// follower) holds exactly want's learning state. Devices that never
// checked in are dropped on both sides: they exist only as credentials,
// which are not replicated or persisted.
func checkSameState(what string, want, got *core.ServerState) error {
	switch {
	case got.Iteration != want.Iteration:
		return fmt.Errorf("%s at iteration %d, leader at %d", what, got.Iteration, want.Iteration)
	case got.Stopped != want.Stopped:
		return fmt.Errorf("%s stopped=%v, leader %v", what, got.Stopped, want.Stopped)
	case got.TotalSamples != want.TotalSamples || got.TotalErrors != want.TotalErrors ||
		!equalInts(got.TotalLabelCounts, want.TotalLabelCounts):
		return fmt.Errorf("%s crowd counters differ from the leader", what)
	case len(got.Params) != len(want.Params):
		return fmt.Errorf("%s has %d parameters, leader %d", what, len(got.Params), len(want.Params))
	}
	if i := firstBitDiff(got.Params, want.Params); i >= 0 {
		return fmt.Errorf("%s parameter %d is %v, leader %v", what, i, got.Params[i], want.Params[i])
	}
	g, w := activeDevices(got), activeDevices(want)
	if len(g) != len(w) {
		return fmt.Errorf("%s has %d devices with checkins, leader %d", what, len(g), len(w))
	}
	for id, we := range w {
		ge, ok := g[id]
		if !ok || ge.Samples != we.Samples || ge.Errors != we.Errors || ge.Checkins != we.Checkins ||
			ge.StalenessSum != we.StalenessSum || !equalInts(ge.LabelCounts, we.LabelCounts) {
			return fmt.Errorf("%s device %s differs from the leader", what, id)
		}
	}
	return nil
}

// checkTestError requires a model that learned: well below chance, and
// within testErrorMargin of the centralized batch learner on the same data.
func checkTestError(testErr, batchErr float64, classes int) error {
	chance := 1 - 1/float64(classes)
	if testErr > chance/2 {
		return fmt.Errorf("test error %.4f is not well below chance %.2f", testErr, chance)
	}
	if testErr > batchErr+testErrorMargin {
		return fmt.Errorf("test error %.4f exceeds the batch baseline %.4f by more than %.2f", testErr, batchErr, testErrorMargin)
	}
	return nil
}

// testErrorMargin is how far above the non-private batch learner the
// crowd's privately trained model may end: the sessions are short and the
// gradients carry Laplace noise, so the crowd trails the batch learner.
const testErrorMargin = 0.3

func activeDevices(st *core.ServerState) map[string]core.DeviceStateEntry {
	out := make(map[string]core.DeviceStateEntry)
	for id, e := range st.Devices {
		if e.Checkins > 0 {
			out[id] = e
		}
	}
	return out
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedKeys lists a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
