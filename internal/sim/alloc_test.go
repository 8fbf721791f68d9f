package sim

// Allocation-regression pins for the per-slot hot path. After the engine
// is constructed, stepping slots must stay within a small constant
// allocation budget: the single-FBS path is fully allocation-free apart
// from the amortized per-GOP PSNR bookkeeping, and the interfering path
// pays only for the escaping greedy result. A regression here is exactly
// the GC pressure that flattened the parallel replication speedup.

import "testing"

func TestSlotStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := []struct {
		name        string
		interfering bool
		opts        Options
		budget      float64 // average allocations per slot
	}{
		// Budget 1 absorbs the per-GOP EndGOP appends and rare pool misses;
		// the per-slot steady state is zero.
		{"proposed-single", false, Options{Scheme: Proposed}, 1},
		{"proposed-single-dual", false, Options{Scheme: Proposed, UseDualSolver: true}, 1},
		// Warm-started sessions must not add a single allocation to the
		// steady-state slot: seeds are written into pooled workspaces and
		// carried multipliers live in session-owned slices.
		{"proposed-single-warm", false, Options{Scheme: Proposed, WarmStart: true}, 1},
		{"proposed-single-dual-warm", false, Options{Scheme: Proposed, UseDualSolver: true, WarmStart: true}, 1},
		// The greedy channel allocation returns a fresh result per slot
		// (~17 allocs observed); anything near the pre-rework ~5900 means
		// per-evaluation scratch is being rebuilt again.
		{"proposed-interfering", true, Options{Scheme: Proposed}, 30},
		{"heuristic2-interfering", true, Options{Scheme: Heuristic2}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := benchNet(t, tc.interfering)
			tc.opts.Seed = 1
			tc.opts.GOPs = 1
			e, err := newEngine(net, tc.opts.withDefaults(), nil)
			if err != nil {
				t.Fatal(err)
			}
			slot := 0
			for ; slot < net.T; slot++ { // warm one full GOP
				if err := e.step(slot); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(2*net.T, func() {
				if err := e.step(slot); err != nil {
					t.Fatal(err)
				}
				slot++
			})
			if avg > tc.budget {
				t.Errorf("step allocates %.2f/slot in steady state, budget %g", avg, tc.budget)
			}
		})
	}
}
