package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"femtocr/internal/netmodel"
	"femtocr/internal/packetsim"
	"femtocr/internal/sim"
)

// engineKind selects the public entry point a workload runs through.
type engineKind int

const (
	engineRate    engineKind = iota + 1 // sim.Run
	engineSharded                       // sim.RunSharded
	enginePacket                        // packetsim.Run
)

// workload is one named benchmark input. Every workload uses the paper's
// §V defaults (netmodel.DefaultConfig: M=8, eta=4/7, gamma=0.2, T=10) and
// the Proposed scheme; the topology is fixed by the config's placement
// seed, and the benchmark's --seed drives every stochastic process of the
// run (occupancy, sensing, access, fading).
type workload struct {
	name       string
	engine     engineKind
	spec       func() netmodel.TopologySpec
	gops       int  // GOPs simulated per measured run
	trackBound bool // also track the eq. (23) ceiling (interfering only)
}

var workloads = []workload{
	{name: "paper-single", engine: engineRate, spec: netmodel.PaperSingleSpec, gops: 300},
	{name: "paper-interfering", engine: engineRate, spec: netmodel.PaperInterferingSpec, gops: 40, trackBound: true},
	{name: "metro-poisson", engine: engineSharded, spec: func() netmodel.TopologySpec { return netmodel.MetroPoissonSpec(400, 2) }, gops: 2},
	{name: "packet-single", engine: enginePacket, spec: netmodel.PaperSingleSpec, gops: 300},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// size names the workload's run length; a reference recorded at another
// size does not apply.
func (w *workload) size() string { return "gops=" + strconv.Itoa(w.gops) }

// setup builds the workload's input: NewNetwork, plus Partition on the
// sharded workload (RunSharded partitions again itself; timing it here
// exposes the cost to setup_s).
func (w *workload) setup() (*netmodel.Network, error) {
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), w.spec())
	if err != nil {
		return nil, err
	}
	if w.engine == engineSharded {
		if _, err := net.Partition(); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// outcome is one untraced run's checked output.
type outcome struct {
	psnr      float64
	bound     float64 // eq. (23) ceiling, TrackBound runs only
	sharded   *sim.ShardedResult
	userSlots int64
}

// run executes the workload once through its public entry point.
func (w *workload) run(net *netmodel.Network, seed uint64, workers int) (*outcome, error) {
	o := &outcome{userSlots: int64(net.K()) * int64(w.gops) * int64(net.T)}
	switch w.engine {
	case engineRate:
		res, err := sim.Run(net, sim.Options{Seed: seed, GOPs: w.gops, TrackBound: w.trackBound})
		if err != nil {
			return nil, err
		}
		o.psnr, o.bound = res.MeanPSNR, res.BoundPSNR
	case engineSharded:
		res, err := sim.RunSharded(net, sim.Options{Seed: seed, GOPs: w.gops, Parallel: sim.Parallelism{Workers: workers}})
		if err != nil {
			return nil, err
		}
		o.psnr, o.sharded = res.MeanPSNR, res
	case enginePacket:
		res, err := packetsim.Run(net, packetsim.Options{Seed: seed, GOPs: w.gops})
		if err != nil {
			return nil, err
		}
		o.psnr = res.MeanPSNR
	}
	return o, nil
}

// check verifies one run's output: a finite PSNR, bit-equal to want (the
// recorded reference, or the run's own first result when the seed has no
// reference), and on TrackBound runs the eq. (23) ceiling above it.
func (w *workload) check(o *outcome, want float64) error {
	if math.IsNaN(o.psnr) || math.IsInf(o.psnr, 0) {
		return fmt.Errorf("psnr_db is %v", o.psnr)
	}
	if math.Float64bits(o.psnr) != math.Float64bits(want) {
		return fmt.Errorf("psnr_db %v differs from reference %v", o.psnr, want)
	}
	if w.trackBound && !(o.bound >= o.psnr) {
		return fmt.Errorf("eq. (23) ceiling %v below psnr_db %v", o.bound, o.psnr)
	}
	return nil
}

// sameFold reports whether two sharded results fold to identical quality
// figures; Timing and the task grouping depend on the schedule only.
func sameFold(a, b *sim.ShardedResult) bool {
	x, y := *a, *b
	x.Timing, y.Timing = nil, nil
	x.Groups, y.Groups = 0, 0
	return reflect.DeepEqual(x, y)
}

// references holds the recorded psnr_db of every workload and seed. JSON
// numbers round-trip float64 exactly, so the comparison is bit for bit.
type references struct {
	Note  string                        `json:"note"`
	Sizes map[string]string             `json:"sizes"`
	PSNR  map[string]map[string]float64 `json:"psnr_db"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// lookup returns the recorded psnr_db for the workload and seed. A table
// recorded at another run length is an error: the references must be
// recorded again (--record) whenever a workload's size changes.
func (r *references) lookup(w *workload, seed uint64) (float64, bool, error) {
	if got := r.Sizes[w.name]; got != w.size() {
		return 0, false, fmt.Errorf("reference.json records %s at %q, the workload runs %q: record the references again", w.name, got, w.size())
	}
	v, ok := r.PSNR[w.name][strconv.FormatUint(seed, 10)]
	return v, ok, nil
}
