package main

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
	"github.com/crowdml/crowdml/internal/transport"
)

// Privacy budget of every virtual device, in the paper's ε⁻¹ convention.
// The gradient budget is loose enough that a session of a few thousand
// checkins visibly learns (the correctness check needs a model that
// learns); the cost of sampling the Laplace noise does not depend on ε.
const (
	gradientEpsInv = 0.002
	countEpsInv    = 1.0
)

// learningRate is c in η(t) = c/√t: the crowdml-server default.
const learningRate = 10

// workload is one fixed amount of device work against the deployed stack.
// Every session of a workload replays exactly this work, so its outputs
// repeat bit for bit for a given seed.
type workload struct {
	name       string
	classes    int
	dim        int
	noiseScale float64 // within-class spread of the Gaussian-mixture data
	minibatch  int
	devices    int // registered crowd size M; writers rotate round-robin
	cycles     int // acknowledged checkins per session
	// trainSize is the training pool the cycles' minibatches cycle
	// through (0: cycles × minibatch, every sample used once).
	trainSize int
	testSize  int
	wire      transport.WireFormat
	// writerPolls is how many checkouts the writing device makes per
	// cycle; its gradient uses the last one. Extra polls of an unchanged
	// model get empty deltas on the binary-delta wire.
	writerPolls int
	// watchers are devices 0..watchers-1 that additionally poll once per
	// cycle, so their base is always exactly one checkin old.
	watchers int
}

var workloads = []workload{
	{
		name:    "mnist-json-durable",
		classes: 10, dim: 50, noiseScale: 2.2, minibatch: 1,
		devices: 1000, cycles: 1500, testSize: 2000,
		wire: transport.WireJSON, writerPolls: 1,
	},
	{
		name:    "pixels-binary-durable",
		classes: 10, dim: 784, noiseScale: 6, minibatch: 20,
		devices: 200, cycles: 300, trainSize: 4000, testSize: 1000,
		wire: transport.WireBinaryDelta, writerPolls: 1,
	},
	{
		name:    "mnist-delta-poll",
		classes: 10, dim: 50, noiseScale: 2.2, minibatch: 1,
		devices: 1000, cycles: 1500, testSize: 2000,
		wire: transport.WireBinaryDelta, writerPolls: 12, watchers: 4,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pollsPerCycle is the number of checkouts one cycle makes.
func (w workload) pollsPerCycle() int { return w.writerPolls + w.watchers }

// inputs is everything a session feeds the program, generated from the
// seed alone: the training minibatch of every cycle, the test set, and a
// private noise stream per virtual device.
type inputs struct {
	w       workload
	seed    uint64
	batches [][]model.Sample // batches[k] is cycle k's minibatch
	test    []model.Sample
	train   []model.Sample
}

func makeInputs(w workload, seed uint64) (*inputs, error) {
	trainSize := w.trainSize
	if trainSize == 0 {
		trainSize = w.cycles * w.minibatch
	}
	ds, err := dataset.GenerateMixture(dataset.MixtureConfig{
		Name: w.name, Classes: w.classes, Dim: w.dim,
		TrainSize: trainSize, TestSize: w.testSize,
		MeanScale: 1, NoiseScale: w.noiseScale, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, test: ds.Test, train: ds.Train}
	for k := 0; k < w.cycles; k++ {
		i := k * w.minibatch % (trainSize - trainSize%w.minibatch)
		in.batches = append(in.batches, ds.Train[i:i+w.minibatch])
	}
	return in, nil
}

// budget is every device's sanitization budget.
func budget() privacy.Budget {
	return privacy.Budget{
		Gradient:   privacy.FromInv(gradientEpsInv),
		ErrCount:   privacy.FromInv(countEpsInv),
		LabelCount: privacy.FromInv(countEpsInv),
	}
}

// noiseStreams returns one fresh noise RNG per device, derived from the
// seed in device order, so every pass over the same inputs draws the same
// noise.
func (in *inputs) noiseStreams() []*rng.RNG {
	root := rng.New(in.seed ^ 0x9e3779b97f4a7c15)
	out := make([]*rng.RNG, in.w.devices)
	for i := range out {
		out[i] = root.Split()
	}
	return out
}

func deviceID(i int) string { return fmt.Sprintf("dev-%05d", i) }
