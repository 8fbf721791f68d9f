package sim

// Warm-start equivalence gates at the simulation layer. The cross-slot
// solver sessions change only how many subgradient iterations each slot
// burns; every simulated quantity — allocations, realized losses, PSNR
// trajectories — must be identical with WarmStart on and off, across the
// full config grid and the sharded runner. Any config where they differ is
// a bug in the warm path, not tolerance noise, because the discrete repair
// step is required to absorb converged-multiplier differences exactly.

import (
	"reflect"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/video"
)

// warmConfigs is the 16-config snapshot grid: every scheme-relevant
// combination of deployment, solver, bound tracking, fusion prior, and
// seed that exercises a distinct slot-solve path.
func warmConfigs(t *testing.T) []struct {
	name string
	net  *netmodel.Network
	opts Options
} {
	t.Helper()
	cfg := netmodel.DefaultConfig()
	single, err := netmodel.PaperSingleFBS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interf, err := netmodel.PaperInterfering(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trio := video.PaperTrio()
	noninterf, err := netmodel.NonInterfering(cfg, [][]video.Sequence{trio[:], trio[:]})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		net  *netmodel.Network
		opts Options
	}{
		{"single-eq-s1", single, Options{Seed: 1, GOPs: 4, Scheme: Proposed}},
		{"single-eq-s2", single, Options{Seed: 2, GOPs: 4, Scheme: Proposed}},
		{"single-dual-s1", single, Options{Seed: 1, GOPs: 4, Scheme: Proposed, UseDualSolver: true}},
		{"single-dual-s2", single, Options{Seed: 2, GOPs: 4, Scheme: Proposed, UseDualSolver: true}},
		{"single-eq-beliefs", single, Options{Seed: 3, GOPs: 4, Scheme: Proposed, TrackBeliefs: true}},
		{"single-dual-beliefs", single, Options{Seed: 3, GOPs: 4, Scheme: Proposed, UseDualSolver: true, TrackBeliefs: true}},
		{"single-eq-estimate", single, Options{Seed: 4, GOPs: 4, Scheme: Proposed, EstimateUtilization: true}},
		{"single-dual-estimate", single, Options{Seed: 4, GOPs: 4, Scheme: Proposed, UseDualSolver: true, EstimateUtilization: true}},
		{"noninterf-eq-s1", noninterf, Options{Seed: 1, GOPs: 4, Scheme: Proposed}},
		{"noninterf-eq-s2", noninterf, Options{Seed: 2, GOPs: 4, Scheme: Proposed}},
		{"noninterf-dual-s1", noninterf, Options{Seed: 1, GOPs: 4, Scheme: Proposed, UseDualSolver: true}},
		{"noninterf-dual-s2", noninterf, Options{Seed: 2, GOPs: 4, Scheme: Proposed, UseDualSolver: true}},
		{"interf-eq", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed}},
		{"interf-dual", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed, UseDualSolver: true}},
		{"interf-eq-bound", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed, TrackBound: true}},
		{"interf-dual-bound", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed, UseDualSolver: true, TrackBound: true}},
	}
}

// TestWarmStartMatchesColdAcrossConfigs is the snapshot-diff gate of the
// warm-start tentpole: over the 16 sim configs, a WarmStart run must equal
// the cold run field for field (Warm is instrumentation metadata and is
// cleared before the comparison).
func TestWarmStartMatchesColdAcrossConfigs(t *testing.T) {
	for _, tc := range warmConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := Run(tc.net, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			warmOpts := tc.opts
			warmOpts.WarmStart = true
			warmOpts.SolveStats = true
			warm, err := Run(tc.net, warmOpts)
			if err != nil {
				t.Fatal(err)
			}
			warm.Warm = nil
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm run diverged from cold:\n warm %+v\n cold %+v", warm, cold)
			}
		})
	}
}

// TestWarmStartDefaultOffIsLegacyPath pins that the zero-value options
// never construct sessions: the engine keeps the exact legacy SolveInto
// wiring and reports no warm metadata.
func TestWarmStartDefaultOffIsLegacyPath(t *testing.T) {
	net := benchNet(t, false)
	opts := Options{Seed: 1, GOPs: 1, Scheme: Proposed}
	e, err := newEngine(net, opts.withDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.warmSolver != nil || e.session != nil || e.relaxSession != nil {
		t.Fatal("sessions constructed without WarmStart/SolveStats")
	}
	res, err := Run(net, Options{Seed: 1, GOPs: 1, Scheme: Proposed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm != nil {
		t.Fatal("Result.Warm populated without SolveStats")
	}
}

// TestWarmReportStats checks the instrumentation itself: modes, solve
// counts (one slot solve per slot on the single-FBS path), and quantile
// ordering, warm against cold-probe.
func TestWarmReportStats(t *testing.T) {
	net := benchNet(t, false)
	base := Options{Seed: 1, GOPs: 4, Scheme: Proposed, UseDualSolver: true, SolveStats: true}
	cold, err := Run(net, base)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := base
	warmOpts.WarmStart = true
	warm, err := Run(net, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		name string
		res  *Result
		mode string
	}{{"cold", cold, "cold"}, {"warm", warm, "warm"}} {
		w := probe.res.Warm
		if w == nil {
			t.Fatalf("%s: Result.Warm is nil with SolveStats set", probe.name)
		}
		if w.Mode != probe.mode {
			t.Errorf("%s: Mode = %q", probe.name, w.Mode)
		}
		if w.Stats.Solves != probe.res.Slots {
			t.Errorf("%s: %d solves over %d slots", probe.name, w.Stats.Solves, probe.res.Slots)
		}
		if !(w.IterP50 <= w.IterP90 && w.IterP90 <= w.IterP99 && w.IterP99 <= w.IterMax) {
			t.Errorf("%s: quantiles out of order: p50=%d p90=%d p99=%d max=%d",
				probe.name, w.IterP50, w.IterP90, w.IterP99, w.IterMax)
		}
		if w.IterMean <= 0 {
			t.Errorf("%s: IterMean = %v", probe.name, w.IterMean)
		}
	}
	if cold.Warm.Stats.WarmSolves != 0 {
		t.Errorf("cold probe recorded %d warm solves", cold.Warm.Stats.WarmSolves)
	}
	if warm.Warm.Stats.WarmSolves == 0 {
		t.Error("warm run recorded no warm solves")
	}
	// The budget claim of the tentpole, pinned directly at the paper's
	// Markov parameters: at least 2x fewer median subgradient iterations.
	if 2*warm.Warm.IterP50 > cold.Warm.IterP50 {
		t.Errorf("warm median %d not >=2x below cold median %d", warm.Warm.IterP50, cold.Warm.IterP50)
	}
}

// TestShardedWarmMatchesUnsharded extends the sharded bitwise contract to
// warm runs: per-shard sessions must reproduce the unsharded warm engine
// exactly on a connected network, for any grouping, and the folded warm
// report must account for every shard's solves.
func TestShardedWarmMatchesUnsharded(t *testing.T) {
	net := benchNet(t, false)
	base := Options{Seed: 1000, GOPs: 4, Scheme: Proposed, WarmStart: true, SolveStats: true}
	ref, err := Run(net, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Parallel = Parallelism{Workers: workers, Shards: 2}
		sh, err := RunSharded(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareShardedToRun(t, "warm-sharded", sh, ref)
		if sh.Warm == nil {
			t.Fatal("sharded warm report missing")
		}
		if !reflect.DeepEqual(sh.Warm, ref.Warm) {
			t.Errorf("folded warm report %+v, want %+v", sh.Warm, ref.Warm)
		}
	}

	// Multi-component fold: solves must add across shards.
	cfg := netmodel.DefaultConfig()
	trio := video.PaperTrio()
	multi, err := netmodel.NonInterfering(cfg, [][]video.Sequence{trio[:], trio[:], trio[:]})
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.Parallel = Parallelism{Workers: 2}
	sh, err := RunSharded(multi, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards != 3 || sh.Warm == nil {
		t.Fatalf("shards=%d warm=%v", sh.Shards, sh.Warm)
	}
	total := 0
	for _, s := range sh.PerShard {
		if s.Warm == nil {
			t.Fatal("shard missing warm summary")
		}
		total += s.Warm.Stats.Solves
	}
	if sh.Warm.Stats.Solves != total {
		t.Errorf("folded solves %d, shards sum to %d", sh.Warm.Stats.Solves, total)
	}
}
