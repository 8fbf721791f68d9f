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

// solveIntoBudget is the average allocations permitted per SolveInto. The
// expected value is zero; the headroom absorbs the occasional sync.Pool
// miss after a GC, which replaces the whole workspace at once.
const solveIntoBudget = 2

func TestSolveIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	in := randomInstance(rng.New(3), 9, 3)
	cases := []struct {
		name   string
		solver Solver
	}{
		{"dual", NewDualSolver()},
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
	// The budget covers only the escaping result (GreedyResult, its
	// allocation, gain vector, and step log) — the pre-rework figure was
	// ~7400 allocs per Allocate from per-Q-evaluation instance rebuilds.
	const budget = 48
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
