package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"femtocr/internal/packetsim"
	"femtocr/internal/sim"
)

// TestReplayMatchesEngine checks, over a short horizon, that each
// workload's traced replay reproduces its engine's output bit for bit:
// per-user PSNR and the eq. (23) ceiling against sim.Run, the folded mean
// against sim.RunSharded, and the mean against packetsim.Run.
func TestReplayMatchesEngine(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		w.gops = 3
		if w.engine == engineSharded {
			w.gops = 1
		}
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.engine == engineSharded {
				t.Skip("metro replay in -short mode")
			}
			net, err := w.setup()
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 7} {
				var n replayCounts
				tr := newTracer()
				switch w.engine {
				case engineRate:
					res, err := sim.Run(net, sim.Options{Seed: seed, GOPs: w.gops, TrackBound: w.trackBound})
					if err != nil {
						t.Fatal(err)
					}
					out, err := replayRate(net, seed, w.gops, w.trackBound, tr, &n)
					if err != nil {
						t.Fatal(err)
					}
					for j := range res.PerUserPSNR {
						sameBits(t, "user PSNR", out.perUser[j], res.PerUserPSNR[j])
					}
					sameBits(t, "MeanPSNR", out.meanPSNR, res.MeanPSNR)
					sameBits(t, "BoundPSNR", out.boundPSNR, res.BoundPSNR)
				case engineSharded:
					res, err := sim.RunSharded(net, sim.Options{Seed: seed, GOPs: w.gops})
					if err != nil {
						t.Fatal(err)
					}
					psnr, err := replaySharded(net, seed, w.gops, tr, &n)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, "MeanPSNR", psnr, res.MeanPSNR)
				case enginePacket:
					res, err := packetsim.Run(net, packetsim.Options{Seed: seed, GOPs: w.gops})
					if err != nil {
						t.Fatal(err)
					}
					psnr, err := replayPacket(net, seed, w.gops, tr, &n)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, "MeanPSNR", psnr, res.MeanPSNR)
					if n.retx != int64(res.Retransmissions) || n.sent != int64(res.SentPackets) {
						t.Errorf("replay sent/retx %d/%d, packetsim %d/%d", n.sent, n.retx, res.SentPackets, res.Retransmissions)
					}
				}
				if n.floorMisses != 0 {
					t.Errorf("seed %d: Theorem 2 floor missed on %d slots", seed, n.floorMisses)
				}
			}
		})
	}
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: replay %v, engine %v", what, got, want)
	}
}

// TestSelfTimesSumToWall checks the self-time accounting on hand-made
// spans: per-layer self times add up to the root's duration.
func TestSelfTimesSumToWall(t *testing.T) {
	spans := []span{
		{Name: layerRun, Parent: -1, Start: 0, End: 100},
		{Name: layerShard, Parent: 0, Start: 10, End: 90},
		{Name: layerFrontend, Parent: 1, Start: 20, End: 30},
		{Name: layerSolve, Parent: 1, Start: 40, End: 80},
		{Name: layerRealize, Parent: 0, Start: 92, End: 95},
	}
	var lt layerTotals
	lt.add(spans)
	want := map[layer]int64{layerRun: 17, layerShard: 30, layerFrontend: 10, layerSolve: 40, layerRealize: 3}
	var sum int64
	for l, ns := range lt.selfNS {
		if ns != want[layer(l)] {
			t.Errorf("%s self time %d, want %d", layer(l), ns, want[layer(l)])
		}
		sum += ns
	}
	if sum != lt.wallNS || lt.wallNS != 100 {
		t.Errorf("self times sum to %d, wall %d", sum, lt.wallNS)
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestPrintedNamesMatchBenchmarkJSON runs the command on every workload in
// both modes and checks that the metric names and units it prints are
// exactly those BENCHMARK.json declares, that the workloads it accepts are
// exactly those declared, and that the result line has the contract's keys.
func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var declared, known []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	sameSet(t, "workloads", known, declared)

	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		units["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units["1"][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			if testing.Short() && (w.engine == engineSharded || mode == "1") {
				continue
			}
			var out bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "1", "--seconds", "0.01", "--trace", mode}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %s: %v", w.name, mode, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, mode, err)
			}
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			sameSet(t, "result keys", keys, []string{"correct", "attempted", "failed", "metrics"})
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.name, mode, r.Correct, r.Attempted, r.Failed)
			}
			want := units[mode]
			var printed, names []string
			for name, v := range r.Metrics {
				printed = append(printed, name)
				if v.Unit != want[name] {
					t.Errorf("%s: %s printed in %q, declared in %q", w.name, name, v.Unit, want[name])
				}
			}
			for name := range want {
				names = append(names, name)
			}
			sameSet(t, w.name+" trace "+mode+" metrics", printed, names)
			if mode == "1" {
				// The layers' self-time shares and the unattributed
				// residual account for the whole traced wall time.
				sum := 0.0
				for _, v := range r.Metrics {
					if v.Unit == "share" {
						sum += v.Value
					}
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: shares sum to %v, want 1", w.name, sum)
				}
			}
		}
	}
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("%s: printed %v, declared %v", what, g, w)
	}
}

// TestReferencesMatchWorkloads checks that reference.json was recorded at
// every workload's current size.
func TestReferencesMatchWorkloads(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		if _, ok, err := refs.lookup(w, 1); err != nil || !ok {
			t.Errorf("%s: no reference for seed 1 (err %v)", w.name, err)
		}
	}
}
