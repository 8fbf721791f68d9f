package core

import (
	"fmt"
	"math"
)

// BruteForceSolver finds the global optimum of the per-slot problem by
// enumerating all binary base-station associations (optimal by Theorem 1)
// and exactly water-filling every resource for each association. It is
// exponential in the number of users and intended as the ground-truth
// reference for tests, small scenarios, and the optimality-gap experiments.
type BruteForceSolver struct {
	// MaxUsers guards against accidental exponential blow-ups; Solve
	// returns an error beyond it. Zero means the default of 20.
	MaxUsers int
}

var _ Solver = (*BruteForceSolver)(nil)

// Name identifies the scheme.
func (b *BruteForceSolver) Name() string { return "Optimal" }

// Solve enumerates associations and returns the best allocation.
func (b *BruteForceSolver) Solve(in *Instance) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	best := NewAllocation(in.K())
	if err := b.solveInto(in, best); err != nil {
		return nil, err
	}
	return best, nil
}

// SolveInto enumerates associations into a caller-owned allocation.
//
//femtovet:hotpath
//femtovet:borrows in, out
func (b *BruteForceSolver) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	return b.solveInto(in, out)
}

func (b *BruteForceSolver) solveInto(in *Instance, best *Allocation) error {
	limit := b.MaxUsers
	if limit == 0 {
		limit = 20
	}
	k := in.K()
	if k > limit {
		return fmt.Errorf("%w: %d users exceeds brute-force limit %d", ErrNoSolution, k, limit)
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.prepareUsers(in)
	bestVal := math.Inf(-1)
	best.resize(k)
	alloc := &ws.qAlloc
	alloc.resize(k)
	for mask := 0; mask < 1<<k; mask++ {
		for j := 0; j < k; j++ {
			alloc.MBS[j] = mask&(1<<j) != 0
			alloc.Rho0[j] = 0
			alloc.Rho1[j] = 0
		}
		fillResources(in, alloc, ws)
		if v := objectiveCached(in, alloc, ws.logW); v > bestVal {
			bestVal = v
			copy(best.MBS, alloc.MBS)
			copy(best.Rho0, alloc.Rho0)
			copy(best.Rho1, alloc.Rho1)
		}
	}
	return nil
}

// EquilibriumSolver computes a near-exact solution in polynomial time by a
// nested price search: an outer bisection on the common-channel price
// lambda_0 and, for each candidate, an inner bisection per FBS on its band
// price lambda_i. Users pick the base station with the better Lagrangian
// branch value at the prices (Theorem 1), demands are monotone in each
// price, and the final association is repaired by exact water-filling.
//
// It is the default Q(c) evaluator inside the greedy channel allocator,
// where the brute-force reference would be exponential.
type EquilibriumSolver struct {
	// Iters controls both bisection depths. Zero means the default of 60.
	Iters int
}

var (
	_ Solver     = (*EquilibriumSolver)(nil)
	_ WarmSolver = (*EquilibriumSolver)(nil)
)

// Name identifies the scheme.
func (e *EquilibriumSolver) Name() string { return "Proposed" }

// Solve returns a feasible near-optimal allocation.
func (e *EquilibriumSolver) Solve(in *Instance) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	alloc := NewAllocation(in.K())
	if err := e.solveInto(in, alloc); err != nil {
		return nil, err
	}
	return alloc, nil
}

// SolveInto solves the slot's problem into a caller-owned allocation.
//
//femtovet:hotpath
//femtovet:borrows in, out
func (e *EquilibriumSolver) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	return e.solveInto(in, out)
}

// SolveWarmInto is SolveInto seeded from a cross-slot session: when sess
// carries the previous slot's outer common price for an instance of the
// same shape, the outer bisection brackets around it ([l0/2, 2*l0], grown
// outward as needed) at roughly half the cold bisection depth, instead of
// expanding from the global [floor, sum(ps)] bracket. A nil session or a
// seeding-disabled session degrades to the cold path; shape changes and a
// runaway bracket expansion re-cold-start automatically. See SolverSession.
//
//femtovet:hotpath
//femtovet:borrows in, out, sess
func (e *EquilibriumSolver) SolveWarmInto(in *Instance, out *Allocation, sess *SolverSession) error {
	if err := in.Validate(); err != nil {
		return err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.bumpEqEpoch()
	return e.solveSessionWS(in, out, ws, sess)
}

func (e *EquilibriumSolver) solveInto(in *Instance, alloc *Allocation) error {
	ws := getWorkspace()
	defer putWorkspace(ws)
	// A pooled workspace may carry another instance's equilibrium memo;
	// start a fresh epoch so no stale entry can hit.
	ws.bumpEqEpoch()
	return e.solveIntoWS(in, alloc, ws)
}

// solveIntoWS is solveInto on a caller-held workspace. The greedy channel
// allocator calls it directly with its own workspace so the per-FBS
// equilibrium memo survives across its many Q evaluations of the same base
// instance; the caller is responsible for bumpEqEpoch whenever the base
// instance (anything but G) changes.
//
//femtovet:hotpath
//femtovet:borrows in, alloc, ws
func (e *EquilibriumSolver) solveIntoWS(in *Instance, alloc *Allocation, ws *solveWorkspace) error {
	return e.solveSessionWS(in, alloc, ws, nil)
}

// solveSessionWS is the full equilibrium solve on a caller-held workspace
// with an optional cross-slot session; sess == nil is the legacy cold path,
// bit-identical to the pre-session solver.
//
//femtovet:hotpath
//femtovet:borrows in, alloc, ws, sess
func (e *EquilibriumSolver) solveSessionWS(in *Instance, alloc *Allocation, ws *solveWorkspace, sess *SolverSession) error {
	iters := e.Iters
	if iters == 0 {
		iters = 45
	}
	k := in.K()

	ws.prepareUsers(in)
	u0, u1, logW := ws.u0, ws.u1, ws.logW
	wr0, wr1 := ws.wr0, ws.wr1
	sum0PS := 0.0
	for j := 0; j < k; j++ {
		if in.R0[j] > 0 {
			sum0PS += in.PS0[j]
		}
	}
	byFBS := ws.groupByFBS(in)

	const lambdaFloor = 1e-15

	// equilibriumFBS returns the price of FBS i's band clearing its unit
	// budget given the common-channel price, along with each member's
	// final choice as a bitmask (bit b set = member b prefers the MBS at
	// the returned price). Demand is non-increasing in the band price:
	// shares shrink and users defect to the MBS as it rises. The MBS
	// branch values depend only on l0, so they are computed once per call.
	//
	// The (price, mask) pair is a pure function of (i, l0, G_i) for a fixed
	// base instance, so results are memoized in the workspace: the greedy
	// allocator's Q evaluations perturb G at a single FBS per candidate,
	// leaving every other FBS's inner bisection — the dominant cost of the
	// solve — to be answered from the memo. Demand totals are only ever
	// compared against the unit budget, so the accumulation loops exit as
	// soon as the (nonnegative) partial sum crosses it: the remaining terms
	// cannot bring it back, making the early exit decision-identical.
	equilibriumFBS := func(i int, l0 float64) (float64, uint64) {
		members := byFBS[i]
		gi := in.G[i-1]
		memoable := len(members) <= 64
		if memoable {
			if li, mask, ok := ws.eqMemoGet(i, l0, gi); ok {
				return li, mask
			}
		}
		// Gather the members' columns once per miss: the ~2*iters demand
		// probes below then walk contiguous copies instead of chasing
		// member indices through the per-user columns. Same values, same
		// member order, same operations — bit-identical.
		m := len(members)
		ws.gU = growU(ws.gU, m)
		ws.gLogW = growF(ws.gLogW, m)
		ws.gWR = growF(ws.gWR, m)
		ws.gBL = growF(ws.gBL, m)
		ws.gV0 = growF(ws.gV0, m)
		gU, gLogW, gWR, gBL, gV0 := ws.gU, ws.gLogW, ws.gWR, ws.gBL, ws.gV0
		for b, j := range members {
			gU[b] = u1[j]
			gLogW[b] = logW[j]
			gWR[b] = wr1[j]
			gBL[b] = ws.bl1[j]
			gV0[b], _ = u0[j].branchAndRhoWR(l0, logW[j], wr0[j], ws.bl0[j])
		}
		demand := func(li float64) float64 {
			total := 0.0
			for b := range gU {
				bv, rho := gU[b].branchAndRhoWR(li, gLogW[b], gWR[b], gBL[b])
				if bv >= gV0[b] {
					total += rho
					if total > 1 {
						return total
					}
				}
			}
			return total
		}
		li := lambdaFloor
		if demand(li) > 1 {
			hi := 0.0
			for b := range gU {
				hi += gU[b].ps
			}
			if hi > li {
				for demand(hi) > 1 {
					hi *= 2
				}
				lo := li
				for it := 0; it < iters; it++ {
					mid := 0.5 * (lo + hi)
					if demand(mid) > 1 {
						lo = mid
					} else {
						hi = mid
					}
				}
				li = hi
			}
		}
		var mask uint64
		for b := range gU {
			bv, _ := gU[b].branchAndRhoWR(li, gLogW[b], gWR[b], gBL[b])
			if gV0[b] > bv {
				mask |= 1 << uint(b)
			}
		}
		if memoable {
			ws.eqMemoPut(i, l0, gi, li, mask)
		}
		return li, mask
	}

	// Outer bisection on lambda_0: MBS demand is non-increasing in it.
	// outerProbes counts the demand0 evaluations of one solve — each one
	// walks every FBS's inner equilibrium — and is the "iterations" a
	// session records for this solver.
	outerProbes := 0
	demand0 := func(l0 float64) float64 {
		outerProbes++
		total := 0.0
		for i := 1; i <= in.N(); i++ {
			_, mask := equilibriumFBS(i, l0)
			for b, j := range byFBS[i] {
				if mask&(1<<uint(b)) != 0 {
					total += u0[j].rhoAtWR(l0, wr0[j])
					if total > 1 {
						return total
					}
				}
			}
		}
		return total
	}

	warm := false
	if sess != nil {
		sess.observe(in)
		warm = sess.seeding && sess.haveL0
	}
	lo := lambdaFloor
	l0 := lo
	trivial := true
	if demand0(lo) > 1 {
		trivial = false
		solved := false
		if warm {
			// Warm bracket around the previous slot's clearing price: under
			// the Markov channel correlation it rarely moves by more than
			// 2x per slot, so [l0/2, 2*l0] usually brackets and half the
			// cold depth resolves it to comparable relative precision. The
			// expansion guard trips when the carried price is far off
			// (correlation assumption failed) and falls back to the cold
			// global bracket.
			wlo := 0.5 * sess.l0
			if wlo < lambdaFloor {
				wlo = lambdaFloor
			}
			whi := 2 * sess.l0
			if whi <= wlo {
				whi = 1
			}
			ok := true
			for guard := 0; demand0(whi) > 1; guard++ {
				if guard >= 60 {
					ok = false
					break
				}
				wlo = whi
				whi *= 2
			}
			if ok {
				for wlo > lambdaFloor && demand0(wlo) <= 1 {
					whi = wlo
					wlo *= 0.5
				}
				// Invariant: demand0(wlo) > 1 >= demand0(whi), like the
				// cold bracket before its bisection.
				warmIters := iters/2 + 4
				for it := 0; it < warmIters; it++ {
					mid := 0.5 * (wlo + whi)
					if demand0(mid) > 1 {
						wlo = mid
					} else {
						whi = mid
					}
				}
				l0 = whi
				solved = true
			} else {
				sess.stats.Restarts++
			}
		}
		if !solved {
			hi := sum0PS
			if hi <= lo {
				hi = 1
			}
			for demand0(hi) > 1 {
				hi *= 2
			}
			for it := 0; it < iters; it++ {
				mid := 0.5 * (lo + hi)
				if demand0(mid) > 1 {
					lo = mid
				} else {
					hi = mid
				}
			}
			l0 = hi
		}
	}
	if sess != nil {
		if trivial {
			// A slack slot: keep the carried price — it is still the best
			// guess for the next contended slot.
			sess.note(0, false, true)
		} else {
			sess.l0 = l0
			sess.haveL0 = true
			sess.note(outerProbes, warm, false)
		}
	}

	// Fix the association at the equilibrium prices, then water-fill.
	alloc.resize(k)
	for i := 1; i <= in.N(); i++ {
		_, mask := equilibriumFBS(i, l0)
		for b, j := range byFBS[i] {
			alloc.MBS[j] = mask&(1<<uint(b)) != 0
		}
	}
	fillResources(in, alloc, ws)
	polishAssociation(in, alloc, 4, ws)
	if err := feasibleCached(in, alloc, ws, 1e-9); err != nil {
		return fmt.Errorf("equilibrium solver produced infeasible allocation: %w", err)
	}
	return nil
}
