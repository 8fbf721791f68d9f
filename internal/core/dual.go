package core

import (
	"fmt"
	"math"
)

// DualSolver implements the paper's distributed dual-decomposition algorithm
// (Table I for one FBS, Table II for several): each CR user solves its local
// subproblem (14) in closed form for the current prices, picks the better
// base station (Theorem 1 makes the optimal association binary), and the MBS
// updates the dual variables by projected subgradient, eqs. (16), (18)-(19).
//
// After the dual loop, the solver fixes the association from the final
// prices and water-fills each resource exactly, which guarantees a feasible
// allocation even when the subgradient iteration was stopped early.
type DualSolver struct {
	step        float64 // base step size s; 0 means auto-scaled per resource
	stepScale   float64 // auto-step fraction of the price scale
	phi         float64 // termination threshold on squared dual movement
	maxIter     int
	diminishing bool // s_tau = s/sqrt(1+tau)
	trace       bool // record per-iteration dual values
	lambdaMin   float64
}

var (
	_ Solver     = (*DualSolver)(nil)
	_ WarmSolver = (*DualSolver)(nil)
)

// Warm-start tuning constants.
//
// warmUndershoot deliberately seeds below the rescaled carried multipliers:
// the clipped subgradient (g in [-10, 1]) climbs prices up to 10x faster than
// it walks them down, so converting the cross-slot prediction error into a
// short climb is far cheaper than risking a long descent from above.
//
// warmRelTol is the warm-only extra termination test: stop once every price
// moved by at most warmRelTol of its resource's price scale in one
// iteration. Because the step is s = stepScale*scale/sqrt(1+tau), the test
// is equivalent to a per-resource subgradient-residual bound
// |g| <= warmRelTol*sqrt(1+tau)/stepScale (~1e-3 at the resumed schedule
// position): it detects proximity to the fixed point through the demand
// residual, so a seed stuck far from equilibrium (large |g|) can never
// fake convergence. At paper scale the resulting multiplier accuracy is
// about two decades tighter than the error the discrete repair step is
// measured to absorb; the warm-vs-cold equivalence tests gate it.
const (
	warmUndershoot = 0.85
	warmRelTol     = 3e-5
)

// DualOption configures a DualSolver.
type DualOption func(*DualSolver)

// WithStep sets a fixed base step size s (Table I step 9). The default 0
// auto-scales the step to each resource's price magnitude.
func WithStep(s float64) DualOption { return func(d *DualSolver) { d.step = s } }

// WithStepScale sets the auto-scaled step as a fraction of each resource's
// estimated price magnitude (default 0.1). Smaller fractions converge more
// slowly but trace the paper's long Fig. 4(a) trajectories.
func WithStepScale(f float64) DualOption { return func(d *DualSolver) { d.stepScale = f } }

// WithPhi sets the termination threshold phi of Table I step 11.
func WithPhi(phi float64) DualOption { return func(d *DualSolver) { d.phi = phi } }

// WithMaxIter caps the subgradient iterations.
func WithMaxIter(n int) DualOption { return func(d *DualSolver) { d.maxIter = n } }

// WithConstantStep disables the diminishing step-size schedule, running the
// plain constant-step subgradient of the paper.
func WithConstantStep() DualOption { return func(d *DualSolver) { d.diminishing = false } }

// WithTrace records the dual-variable trajectory (Fig. 4(a)).
func WithTrace() DualOption { return func(d *DualSolver) { d.trace = true } }

// NewDualSolver builds the solver with sensible defaults: auto step,
// phi = 1e-14, 2000 iteration cap, diminishing steps.
func NewDualSolver(opts ...DualOption) *DualSolver {
	d := &DualSolver{
		stepScale:   0.1,
		phi:         1e-14,
		maxIter:     2000,
		diminishing: true,
		lambdaMin:   1e-12,
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Name identifies the scheme.
func (d *DualSolver) Name() string { return "Proposed" }

// DualReport carries diagnostics of one solve: the final prices
// [lambda_0, lambda_1..lambda_N], the number of subgradient iterations, and
// (when tracing) the per-iteration price trajectory.
type DualReport struct {
	Lambda     []float64
	Iterations int
	Converged  bool
	Trace      [][]float64
}

// captureTrace appends a snapshot of the current prices to the trajectory.
//
//femtovet:coldpath -- diagnostic price-trajectory capture, only reached under WithTrace; the snapshot must escape into the report
func (r *DualReport) captureTrace(lambda []float64) {
	r.Trace = append(r.Trace, append([]float64(nil), lambda...))
}

// captureLambda copies the final prices into the report.
//
//femtovet:coldpath -- diagnostic, once per SolveDetailed; the price copy must escape into the report
func (r *DualReport) captureLambda(lambda []float64) {
	r.Lambda = append([]float64(nil), lambda...)
}

// Solve returns a feasible allocation for the slot's problem.
func (d *DualSolver) Solve(in *Instance) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	alloc := NewAllocation(in.K())
	if err := d.solveInto(in, alloc, nil, nil); err != nil {
		return nil, err
	}
	return alloc, nil
}

// SolveInto solves the slot's problem into a caller-owned allocation.
//
//femtovet:hotpath
//femtovet:borrows in, out
func (d *DualSolver) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	return d.solveInto(in, out, nil, nil)
}

// SolveWarmInto is SolveInto seeded from a cross-slot session: when sess
// carries converged multipliers for an instance of the same shape, the
// subgradient iteration starts from them (at the step-size schedule position
// the last cold start converged at) instead of the cold 2*scale heuristic.
// A nil session, a seeding-disabled session, or a negative phi (the
// never-terminate tracing mode) degrades to the cold path; shape changes and
// the divergence guard re-cold-start automatically. See SolverSession.
//
//femtovet:hotpath
//femtovet:borrows in, out, sess
func (d *DualSolver) SolveWarmInto(in *Instance, out *Allocation, sess *SolverSession) error {
	if err := in.Validate(); err != nil {
		return err
	}
	return d.solveInto(in, out, nil, sess)
}

// SolveDetailed additionally returns the dual-iteration diagnostics.
func (d *DualSolver) SolveDetailed(in *Instance) (*Allocation, *DualReport, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	alloc := NewAllocation(in.K())
	report := &DualReport{}
	if err := d.solveInto(in, alloc, report, nil); err != nil {
		return nil, nil, err
	}
	return alloc, report, nil
}

// SolveWarmDetailed is SolveWarmInto with the dual-iteration diagnostics,
// for tests and instrumentation of the warm path.
func (d *DualSolver) SolveWarmDetailed(in *Instance, sess *SolverSession) (*Allocation, *DualReport, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	alloc := NewAllocation(in.K())
	report := &DualReport{}
	if err := d.solveInto(in, alloc, report, sess); err != nil {
		return nil, nil, err
	}
	return alloc, report, nil
}

// solveInto runs the dual iteration on pooled workspace scratch, writing
// the repaired allocation into out and, when report is non-nil, the
// diagnostics into report. A non-nil sess records iteration statistics and,
// when its seeding is enabled, warm-starts the iteration; sess == nil is the
// legacy cold path, bit-identical to the pre-session solver.
func (d *DualSolver) solveInto(in *Instance, out *Allocation, report *DualReport, sess *SolverSession) error {
	ws := getWorkspace()
	defer putWorkspace(ws)

	k, n := in.K(), in.N()
	nRes := n + 1 // resource 0 is the common channel, 1..N the FBS bands
	ws.prepareUsers(in)

	// Per-resource price scale estimates used for auto step sizing and
	// initialization: lambda* ~ sum(ps) / (1 + sum(w/r)) from the
	// water-filling KKT conditions.
	scale := growF(ws.scale, nRes)
	ws.scale = scale
	{
		sumPS := growF(ws.sumPS, nRes)
		ws.sumPS = sumPS
		sumWR := growF(ws.sumWR, nRes)
		ws.sumWR = sumWR
		for i := 0; i < nRes; i++ {
			sumPS[i] = 0
			sumWR[i] = 0
		}
		for j := 0; j < k; j++ {
			if in.R0[j] > 0 {
				sumPS[0] += in.PS0[j]
				sumWR[0] += in.W[j] / in.R0[j]
			}
			if r := in.effR1(j); r > 0 {
				i := in.FBS[j]
				sumPS[i] += in.PS1[j]
				sumWR[i] += in.W[j] / r
			}
		}
		for i := range scale {
			if sumPS[i] > 0 {
				scale[i] = sumPS[i] / (1 + sumWR[i])
			} else {
				scale[i] = 1
			}
		}
	}

	lambda := growF(ws.lambda, nRes)
	ws.lambda = lambda
	sums := growF(ws.sums, nRes)
	ws.sums = sums
	next := growF(ws.next, nRes)
	ws.next = next

	// Session path only (phi >= 0 keeps the tracing never-terminate mode
	// out): a trivially-feasible instance — every resource can absorb the
	// full both-branch demand even at the price floor — drives every price
	// to exactly zero under the cold dynamics, so skip the loop and repair
	// at zero prices directly. The carried multipliers are left untouched:
	// a quiet slot must not wipe the tracker.
	if sess != nil && d.phi >= 0 {
		sess.observe(in)
		if d.triviallyFeasible(in, ws, sums) {
			for i := range lambda {
				lambda[i] = 0
			}
			if report != nil {
				report.Iterations = 0
				report.Converged = true
				if d.trace {
					report.captureTrace(lambda)
				}
				report.captureLambda(lambda)
			}
			sess.note(0, false, true)
			d.repair(in, out, lambda, ws)
			if err := feasibleCached(in, out, ws, 1e-9); err != nil {
				return fmt.Errorf("dual solver produced infeasible allocation: %w", err)
			}
			return nil
		}
	}

	warm := sess != nil && d.phi >= 0 && sess.seeding &&
		sess.haveLambda && len(sess.lambda) == nRes
	tauStart := 0
	relTol := 0.0
	if warm {
		// Seed from the carried multipliers, rescaled by the per-resource
		// price-scale drift (the KKT estimate tracks lambda* as G and W move
		// between slots) and deliberately undershot: the clipped subgradient
		// climbs prices up to 10x faster than it walks them down, so turning
		// the prediction error into a short climb is far cheaper than risking
		// a slow descent from above. Resources with zero aggregate demand
		// price at exactly zero, so seed them there directly.
		for i := range lambda {
			if ws.sumPS[i] == 0 {
				lambda[i] = 0
				continue
			}
			li := sess.lambda[i]
			if ref := sess.scaleRef[i]; ref != scale[i] && ref > 0 { //femtovet:ignore floateq -- bit-equal scale means the carried multiplier is exact; any drift takes the rescale path
				li *= warmUndershoot * scale[i] / ref
			}
			lambda[i] = li
		}
		tauStart = sess.tau
		relTol = warmRelTol
	} else {
		for i := range lambda {
			lambda[i] = 2 * scale[i] // start above the target, as in Fig. 4(a)
		}
	}
	if report != nil {
		report.Iterations = 0
		if d.trace {
			report.captureTrace(lambda)
		}
	}

	final, performed, converged := d.iterate(in, ws, lambda, next, sums, scale, tauStart, relTol, report)
	totalIters := performed
	coldStart := !warm
	if warm && !converged {
		// Divergence guard: the carried multipliers did not lead to
		// convergence within the iteration budget (the correlation
		// assumption failed for this slot), so re-run cold in the same
		// call. The report describes the attempt that produced the final
		// prices; the failed attempt's cost shows up in SessionStats.
		for i := range lambda {
			lambda[i] = 2 * scale[i]
		}
		if report != nil {
			report.Iterations = 0
			report.Converged = false
			if d.trace {
				report.captureTrace(lambda)
			}
		}
		final, performed, converged = d.iterate(in, ws, lambda, next, sums, scale, 0, 0, report)
		totalIters += performed
		coldStart = true
		sess.stats.Restarts++
	}
	if report != nil {
		report.captureLambda(final)
	}
	if sess != nil && d.phi >= 0 {
		if converged {
			tau := tauStart + performed - 1
			if coldStart {
				tau = performed - 1
			}
			if tau < 0 {
				tau = 0
			}
			sess.storeLambda(final, scale, tau, coldStart)
		} else {
			// Not even the cold budget converged: these multipliers are
			// not a trustworthy seed, so the next slot starts cold too.
			sess.haveLambda = false
		}
		sess.note(totalIters, warm, false)
	}

	// Repair: freeze the association from the final prices and water-fill
	// each resource exactly so the allocation is feasible and supported by
	// consistent prices.
	d.repair(in, out, final, ws)
	if err := feasibleCached(in, out, ws, 1e-9); err != nil {
		return fmt.Errorf("dual solver produced infeasible allocation: %w", err)
	}
	return nil
}

// iterate runs the projected-subgradient loop (Table I steps 3-11) from the
// given step-size schedule position, alternating between the lambda and next
// buffers instead of copying — each iteration fully rewrites the target
// buffer, so the swap is bit-identical to the copy it replaces. It returns
// the buffer holding the final prices, the number of iterations performed,
// and whether the movement test passed.
//
// relTol > 0 enables the warm-only movement termination: stop once every
// price moved by at most relTol of its resource's price scale in one
// iteration (a per-resource demand-residual test; see warmRelTol). The
// cold/legacy path always passes 0, keeping its termination (and hence its
// iterates) bit-identical to the session-less solver.
//
//femtovet:hotpath
//femtovet:owns lambda, next
//femtovet:borrows in, ws, sums, scale, report
func (d *DualSolver) iterate(in *Instance, ws *solveWorkspace, lambda, next, sums, scale []float64, tauStart int, relTol float64, report *DualReport) ([]float64, int, bool) {
	k := in.K()
	performed := 0
	converged := false
	for it := 0; it < d.maxIter; it++ {
		tau := tauStart + it
		// Steps 3-8: each user solves its subproblem at the current prices.
		for i := range sums {
			sums[i] = 0
		}
		for j := 0; j < k; j++ {
			i := in.FBS[j]
			l0 := math.Max(lambda[0], d.lambdaMin)
			l1 := math.Max(lambda[i], d.lambdaMin)
			bv0, rho0 := ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
			bv1, rho1 := ws.u1[j].branchAndRhoWR(l1, ws.logW[j], ws.wr1[j], ws.bl1[j])
			if bv0 > bv1 {
				sums[0] += rho0
			} else {
				sums[i] += rho1
			}
		}

		// Step 9: projected subgradient update, eqs. (18)-(19).
		move := 0.0
		relOK := relTol > 0
		for i := range lambda {
			g := 1 - sums[i] // subgradient of the dual in lambda_i
			if g < -10 {
				g = -10 // clip runaway demand when a price hits zero
			}
			s := d.step
			if s <= 0 {
				s = d.stepScale * scale[i]
			}
			if d.diminishing {
				s /= math.Sqrt(1 + float64(tau))
			}
			next[i] = lambda[i] - s*g
			if next[i] < 0 {
				next[i] = 0
			}
			delta := next[i] - lambda[i]
			move += delta * delta
			if relOK && math.Abs(delta) > relTol*scale[i] {
				relOK = false
			}
		}
		lambda, next = next, lambda
		performed = it + 1
		if report != nil {
			report.Iterations = performed
			if d.trace {
				report.captureTrace(lambda)
			}
		}
		if move <= d.phi || relOK {
			converged = true
			if report != nil {
				report.Converged = true
			}
			break
		}
	}
	return lambda, performed, converged
}

// triviallyFeasible reports whether every resource can absorb the full
// both-branch demand of its users at the price floor — the pessimistic
// over-count where every user claims its share on the MBS and its FBS
// simultaneously. When it holds, demand stays strictly below every budget at
// any price, the subgradient is strictly positive, and the cold dynamics
// drive all prices to exactly zero. The strict-inequality early exit keeps
// the check ~one user deep on the saturated instances of the paper scale.
//
//femtovet:hotpath
//femtovet:borrows in, ws, sums
func (d *DualSolver) triviallyFeasible(in *Instance, ws *solveWorkspace, sums []float64) bool {
	k := in.K()
	for i := range sums {
		sums[i] = 0
	}
	for j := 0; j < k; j++ {
		i := in.FBS[j]
		sums[0] += ws.u0[j].rhoAtWR(d.lambdaMin, ws.wr0[j])
		sums[i] += ws.u1[j].rhoAtWR(d.lambdaMin, ws.wr1[j])
		if sums[0] >= 1 || sums[i] >= 1 {
			return false
		}
	}
	return true
}

// repair builds the final feasible allocation: users keep the base station
// chosen at the final prices; each resource is then water-filled among its
// users.
func (d *DualSolver) repair(in *Instance, alloc *Allocation, lambda []float64, ws *solveWorkspace) {
	k := in.K()
	alloc.resize(k)
	for j := 0; j < k; j++ {
		i := in.FBS[j]
		l0 := math.Max(lambda[0], d.lambdaMin)
		l1 := math.Max(lambda[i], d.lambdaMin)
		alloc.MBS[j] = ws.u0[j].branchValueLog(l0, ws.logW[j]) > ws.u1[j].branchValueLog(l1, ws.logW[j])
	}
	fillResources(in, alloc, ws)
	polishAssociation(in, alloc, 4, ws)
}

// polishAssociation runs best-improvement coordinate search over the binary
// base-station association: flip one user at a time, re-water-fill the two
// affected resources, keep strict improvements. It repairs mis-associations
// left by a truncated dual iteration; at most maxRounds passes over the
// users. The workspace must have prepareUsers already applied for this
// instance (it supplies the water-filling views and cached log(W) terms).
//
// A rejected flip restores the snapshotted shares instead of re-running the
// two water-fills: the fills are deterministic functions of the (restored)
// association, and the invariant that the current shares always equal the
// fills' output for the current association makes the copy byte-identical
// to the recomputation — at half the cost, since most flips are rejected.
func polishAssociation(in *Instance, alloc *Allocation, maxRounds int, ws *solveWorkspace) {
	k := in.K()
	cur := objectiveCached(in, alloc, ws.logW)
	save0 := growF(ws.polishRho0, k)
	ws.polishRho0 = save0
	save1 := growF(ws.polishRho1, k)
	ws.polishRho1 = save1
	for round := 0; round < maxRounds; round++ {
		improved := false
		for j := 0; j < k; j++ {
			// Flipping user j only perturbs the common channel and its own
			// FBS band; every other resource's water-filling is unchanged.
			copy(save0, alloc.Rho0)
			copy(save1, alloc.Rho1)
			alloc.MBS[j] = !alloc.MBS[j]
			fillCommon(in, alloc, ws)
			fillFBS(in, alloc, in.FBS[j], ws)
			if v := objectiveCached(in, alloc, ws.logW); v > cur+1e-12 {
				cur = v
				improved = true
			} else {
				alloc.MBS[j] = !alloc.MBS[j]
				copy(alloc.Rho0, save0)
				copy(alloc.Rho1, save1)
			}
		}
		if !improved {
			return
		}
	}
}

// fillResources water-fills the common channel among MBS users and each FBS
// band among its users, given a fixed association in alloc.MBS.
func fillResources(in *Instance, alloc *Allocation, ws *solveWorkspace) {
	fillCommon(in, alloc, ws)
	for i := 1; i <= in.N(); i++ {
		fillFBS(in, alloc, i, ws)
	}
}

// fillCommon water-fills the common channel among the users associated with
// the MBS, on workspace scratch. The effective users are gathered straight
// into the flat waterfillColumns views, reusing the w/r quotients
// prepareUsers hoisted; users filtered out here are exactly those the
// scalar reference zeroed, so their shares are set to zero up front.
func fillCommon(in *Instance, alloc *Allocation, ws *solveWorkspace) {
	k := in.K()
	idx := ws.wfIdx[:0]
	ps := ws.wfPS[:0]
	wr := ws.wfWR[:0]
	caps := ws.wfCap[:0]
	for j := 0; j < k; j++ {
		if !alloc.MBS[j] {
			continue
		}
		alloc.Rho0[j] = 0
		alloc.Rho1[j] = 0
		u := ws.u0[j]
		if u.ps > 0 && u.r > 0 {
			idx = append(idx, j)
			ps = append(ps, u.ps)
			wr = append(wr, ws.wr0[j])
			caps = append(caps, u.cap)
		}
	}
	ws.wfIdx, ws.wfPS, ws.wfWR, ws.wfCap = idx, ps, wr, caps
	rho := growF(ws.wfRho, len(idx))
	ws.wfRho = rho
	waterfillColumns(rho, ps, wr, caps, 1)
	for t, j := range idx {
		alloc.Rho0[j] = rho[t]
	}
}

// fillFBS water-fills FBS i's licensed band among its associated users, on
// workspace scratch, gathering the effective users into the flat
// waterfillColumns views like fillCommon.
func fillFBS(in *Instance, alloc *Allocation, i int, ws *solveWorkspace) {
	k := in.K()
	idx := ws.wfIdx[:0]
	ps := ws.wfPS[:0]
	wr := ws.wfWR[:0]
	caps := ws.wfCap[:0]
	for j := 0; j < k; j++ {
		if alloc.MBS[j] || in.FBS[j] != i {
			continue
		}
		alloc.Rho0[j] = 0
		alloc.Rho1[j] = 0
		u := ws.u1[j]
		if u.ps > 0 && u.r > 0 {
			idx = append(idx, j)
			ps = append(ps, u.ps)
			wr = append(wr, ws.wr1[j])
			caps = append(caps, u.cap)
		}
	}
	ws.wfIdx, ws.wfPS, ws.wfWR, ws.wfCap = idx, ps, wr, caps
	rhoI := growF(ws.wfRho, len(idx))
	ws.wfRho = rhoI
	waterfillColumns(rhoI, ps, wr, caps, 1)
	for t, j := range idx {
		alloc.Rho1[j] = rhoI[t]
	}
}
