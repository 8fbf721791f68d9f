package core

// Allocation-regression pins for the solver hot path. Every solver's
// SolveInto must be allocation-free in steady state (all scratch comes from
// the pooled workspace, all output goes into the caller's Allocation), and
// greedy channel allocation must stay within a small constant budget per
// Allocate (only the escaping GreedyResult allocates). These tests fail if
// a future change reintroduces per-solve makes, maps, or sort closures.
//
// Since femtovet v3 the same contract is checked statically: the hotpath
// analyzer flags allocation-causing constructs reachable from the
// //femtovet:hotpath roots at vet time. These AllocsPerRun pins (with the
// slot-step pins in internal/sim/alloc_test.go) remain the runtime
// backstop for whatever escape analysis the static check cannot see
// (interface dispatch, closure escapes the flow tracker misses).

import (
	"testing"

	"femtocr/internal/rng"
)

// greedyAllocBudget is the average allocations permitted per greedy
// Allocate. It covers only the escaping result (GreedyResult, its
// allocation, gain vector, and step log) — the pre-rework figure was ~7400
// allocs per Allocate from per-Q-evaluation instance rebuilds.
const greedyAllocBudget = 48

// solveIntoBudget is the average allocations permitted per SolveInto. The
// expected value is zero; the headroom absorbs the occasional sync.Pool
// miss after a GC, which replaces the whole workspace at once.
const solveIntoBudget = 2

func TestSolveIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	in := randomInstance(rng.New(3), 9, 3)
	// Truncated after three iterations, the dual solver leaves a
	// mis-association the polish repairs on in: its row pins the accepted
	// flip's refresh of the rejection-certificate state.
	truncated := NewDualSolver(WithMaxIter(3))
	if dualPolishFlips(t, truncated, in) == 0 {
		t.Fatal("the truncated dual solver's polish accepts no flip on this instance")
	}
	cases := []struct {
		name   string
		solver Solver
	}{
		{"dual", NewDualSolver()},
		{"dual-polish-accepts", truncated},
		{"equilibrium", &EquilibriumSolver{}},
		{"bruteforce", &BruteForceSolver{}},
		{"heuristic1", Heuristic1{}},
		{"heuristic2", Heuristic2{}},
		{"maxthroughput", MaxThroughput{}},
		{"roundrobin", &RoundRobin{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := NewAllocation(in.K())
			if err := tc.solver.SolveInto(in, out); err != nil { // warm the pool
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := tc.solver.SolveInto(in, out); err != nil {
					t.Fatal(err)
				}
			})
			if avg > solveIntoBudget {
				t.Errorf("SolveInto allocates %.2f/op in steady state, budget %d", avg, solveIntoBudget)
			}
		})
	}
}

func TestGreedyAllocateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = greedyAllocBudget
	p := interferingProblem(rng.New(7), 4)
	for _, tc := range []struct {
		name string
		g    *GreedyAllocator
	}{
		{"eager", NewGreedyAllocator(&EquilibriumSolver{})},
		{"lazy", NewGreedyAllocator(&EquilibriumSolver{}, WithLazyEvaluation())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.g.Allocate(p); err != nil { // warm the pool
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := tc.g.Allocate(p); err != nil {
					t.Fatal(err)
				}
			})
			if avg > budget {
				t.Errorf("Allocate allocates %.2f/op in steady state, budget %d", avg, budget)
			}
		})
	}
}

// TestGreedyAllocateAtProbeCapSteadyStateAllocs pins the probe caches'
// caps: once a workspace's row arena has grown to probeRowCap, further
// walks run uncached on the scratch row instead of growing it, and once
// its certificate bound arena has grown to probeBoundCap, further roots
// store no certificate, so an Allocate large enough to fill both arenas
// stays within the same budget.
func TestGreedyAllocateAtProbeCapSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := probeCapProblem()
	g := NewGreedyAllocator(&EquilibriumSolver{}, WithLazyEvaluation())
	ws := new(solveWorkspace)
	ws.bumpEqEpoch()
	if _, err := g.allocateWS(p, ws); err != nil {
		t.Fatal(err)
	}
	if m := len(ws.byFBS[1]); len(ws.probeRows)+m <= probeRowCap {
		t.Fatalf("Allocate left %d of %d row entries in use; the problem does not reach the cap", len(ws.probeRows), probeRowCap)
	}
	if m := len(ws.byFBS[1]); len(ws.probeBounds)+2*m <= probeBoundCap {
		t.Fatalf("Allocate left %d of %d certificate bounds in use; the problem does not reach the cap", len(ws.probeBounds), probeBoundCap)
	}
	if _, err := g.Allocate(p); err != nil { // warm the pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := g.Allocate(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg > greedyAllocBudget {
		t.Errorf("Allocate allocates %.2f/op in steady state, budget %d", avg, greedyAllocBudget)
	}
}

// probeCapProblem is a three-FBS path with 60 users per cell: its Q
// evaluations fill the probe-row and certificate bound arenas within one
// Allocate.
func probeCapProblem() *ChannelProblem {
	p := interferingProblem(rng.New(8), 8)
	p.Base = randomInstance(rng.New(9), 180, 3)
	for j := range p.Base.FBS {
		p.Base.FBS[j] = j/60 + 1
	}
	return p
}
