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
// users. alloc's shares must be fillResources' output for its association
// on ws, whose prepareUsers must already have run for this instance (it
// supplies the water-filling views, cached log(W) terms and fill prices).
//
// A rejected flip restores the snapshotted shares and prices instead of
// re-running the two water-fills: the fills are deterministic functions of
// the (restored) association, and the invariant that the current shares
// always equal the fills' output for the current association makes the copy
// byte-identical to the recomputation.
//
// Most flips are rejected, and most of those are decided without any
// water-filling by a rejection certificate (certRejects): weak duality at
// the current fill prices bounds what the flip can gain, and when that bound
// plus a float-error margin cannot clear the 1e-12 acceptance threshold the
// exact evaluation would reject the flip, so it is skipped. The skip changes
// no output bit; flips the certificate cannot decide, including every NaN or
// infinite bound, are evaluated exactly as before. DESIGN.md ("Rejection
// certificates for the association polish") derives the bound and the
// margin's error model.
func polishAssociation(in *Instance, alloc *Allocation, maxRounds int, ws *solveWorkspace) {
	k := in.K()
	cur := objectiveCached(in, alloc, ws.logW)
	save0 := growF(ws.polishRho0, k)
	ws.polishRho0 = save0
	save1 := growF(ws.polishRho1, k)
	ws.polishRho1 = save1
	errObj := certInit(in, alloc, ws)
	lam := ws.fillLam
	for round := 0; round < maxRounds; round++ {
		improved := false
		for j := 0; j < k; j++ {
			if certRejects(in, alloc, ws, j, errObj) {
				continue
			}
			// Flipping user j only perturbs the common channel and its own
			// FBS band; every other resource's water-filling is unchanged.
			i := in.FBS[j]
			copy(save0, alloc.Rho0)
			copy(save1, alloc.Rho1)
			l0, li := lam[0], lam[i]
			alloc.MBS[j] = !alloc.MBS[j]
			lam[0] = fillCommon(in, alloc, ws)
			lam[i] = fillFBS(in, alloc, i, ws)
			if v := objectiveCached(in, alloc, ws.logW); v > cur+1e-12 {
				cur = v
				improved = true
				certRefresh(in, alloc, ws, i)
			} else {
				alloc.MBS[j] = !alloc.MBS[j]
				copy(alloc.Rho0, save0)
				copy(alloc.Rho1, save1)
				lam[0], lam[i] = l0, li
			}
		}
		if !improved {
			return
		}
	}
}

// certUnit is the unit roundoff u = 2^-53 inflated by 2^-10, which absorbs
// the rounding of the margin's own arithmetic and the higher-order terms the
// error model drops (valid below 2^30 users).
const certUnit = 0x1.004p-53

// certInit sizes and fills the certificate state of every resource and
// returns errObj, the error bound (in units of u) of the two objectiveCached
// sums a flip decision compares, the current objective and the flipped one,
// together with the rounding of cur+1e-12 and of the certificate test
// itself. errObj holds for every association and every water-filled shares,
// so one value serves the whole polish. With Λ = Σ|log W_j| and the prefix
// weights w_0 = k-1, w_j = k-j that count the partial sums a term enters:
//
//	errObj = 2·Σ w_j|log W_j| + (2k+11)·X + 21·Λ + 4·Σ max(PS0_j, PS1_j) + 1,
//
// where X = 2·Σ_j max_s ps_j·r_j/W_j over j's two stations bounds
// Σ_j ps_j·gain_j/W_j (a share is at most its resource's total, which is 1
// plus rounding, bounded by 2).
func certInit(in *Instance, alloc *Allocation, ws *solveWorkspace) float64 {
	k, nRes := in.K(), in.N()+1
	ws.certDual = growF(ws.certDual, nRes)
	ws.certVal = growF(ws.certVal, nRes)
	ws.certErr = growF(ws.certErr, nRes)
	certRefresh(in, alloc, ws, -1)
	wsum, abs, x, pi := 0.0, 0.0, 0.0, 0.0
	for j := 0; j < k; j++ {
		a := math.Abs(ws.logW[j])
		w := float64(k - j)
		if j == 0 {
			w = float64(k - 1)
		}
		wsum += w * a
		abs += a
		u0, u1 := ws.u0[j], ws.u1[j]
		x += 2 * math.Max(u0.ps*u0.r/u0.w, u1.ps*u1.r/u1.w)
		pi += math.Max(u0.ps, u1.ps)
	}
	return 2*wsum + float64(2*k+11)*x + 21*abs + 4*pi + 1
}

// certRefresh recomputes certDual, certVal and certErr at the prices in
// fillLam: for every resource when i < 0, else for the common channel and
// FBS i's band, the two a flip re-fills. D_r = λ_r + Σ_{m in r} bv_m(λ_r)
// counts every member, including those with ps <= 0 or r <= 0, whose branch
// value is their zero-share bl; V_r sums the members' objectiveCached terms.
// Both are summed in user order. certErr[r] collects, in units of u, the
// magnitudes of the two sums' partial sums (their summation error), each
// term's evaluation error (branchErr, termErr) and (k+2)·λ_r, the price
// times the overshoot by which a later re-fill's shares may exceed the unit
// budget.
func certRefresh(in *Instance, alloc *Allocation, ws *solveWorkspace, i int) {
	k := in.K()
	lam, dual, val, errs := ws.fillLam, ws.certDual, ws.certVal, ws.certErr
	for r := range dual {
		if i < 0 || r == 0 || r == i {
			dual[r], val[r], errs[r] = lam[r], 0, float64(k+2)*lam[r]
		}
	}
	for j := 0; j < k; j++ {
		r, u, wr, bl, rho := 0, ws.u0[j], ws.wr0[j], ws.bl0[j], alloc.Rho0[j]
		if !alloc.MBS[j] {
			r, u, wr, bl, rho = in.FBS[j], ws.u1[j], ws.wr1[j], ws.bl1[j], alloc.Rho1[j]
		}
		if i >= 0 && r != 0 && r != i {
			continue
		}
		lw := ws.logW[j]
		bv, rhoL := u.branchAndRhoWR(lam[r], lw, wr, bl)
		dual[r] += bv
		val[r] += objectiveTerm(in, alloc, ws.logW, j)
		errs[r] += math.Abs(dual[r]) + math.Abs(val[r]) +
			branchErr(u, lw, rhoL, lam[r]) + termErr(u, lw, rho)
	}
}

// termErr bounds, in units of u, the error of user j's objectiveCached term
// at share rho against ℓ + ps·ln(1+gain/w): two-ulp logs, the rounding of
// the log's argument and one rounding per operation.
func termErr(u waterfillUser, logW, rho float64) float64 {
	return 10*math.Abs(logW) + 6*u.ps*rho*u.r/u.w + 2*u.ps
}

// branchErr bounds, in units of u, the error of a branch value
// branchAndRhoWR returned at price lambda with share rho against the exact
// maximum of ℓ + ps·ln(1+ρr/w) − λρ over the share interval: termErr's
// terms, the λρ product and the second-order loss of evaluating at the
// rounded share instead of the exact maximizer.
func branchErr(u waterfillUser, logW, rho, lambda float64) float64 {
	return 11*math.Abs(logW) + 7*u.ps*rho*u.r/u.w + 3*u.ps + 2*lambda*rho
}

// certRejects reports whether a rejection certificate proves that flipping
// user j would be rejected. With a the resource j leaves and b the one it
// joins, weak duality at the current fill prices bounds the flip's gain by
//
//	Δ ≤ (D_a − bv_j^a(λ_a) − V_a) + (D_b + bv_j^b(λ_b) − V_b),
//
// since a resource's value under any feasible shares is at most
// λ + Σ bv_m(λ) for every λ >= 0. The flip is certified when the bound plus
// certUnit times its error bound is at most 1e-12; a NaN bound or margin
// never certifies.
func certRejects(in *Instance, alloc *Allocation, ws *solveWorkspace, j int, errObj float64) bool {
	a, b := 0, in.FBS[j]
	ua, ub := ws.u0[j], ws.u1[j]
	wra, wrb := ws.wr0[j], ws.wr1[j]
	bla, blb := ws.bl0[j], ws.bl1[j]
	if !alloc.MBS[j] {
		a, b = b, a
		ua, ub = ub, ua
		wra, wrb = wrb, wra
		bla, blb = blb, bla
	}
	lw, lam := ws.logW[j], ws.fillLam
	bvA, rhoA := ua.branchAndRhoWR(lam[a], lw, wra, bla)
	bvB, rhoB := ub.branchAndRhoWR(lam[b], lw, wrb, blb)
	dA := ws.certDual[a] - bvA
	dB := ws.certDual[b] + bvB
	vA, vB := ws.certVal[a], ws.certVal[b]
	bound := (dA - vA) + (dB - vB)
	e := errObj + ws.certErr[a] + ws.certErr[b] +
		branchErr(ua, lw, rhoA, lam[a]) + branchErr(ub, lw, rhoB, lam[b]) +
		3*(math.Abs(dA)+math.Abs(vA)+math.Abs(dB)+math.Abs(vB))
	return bound+certUnit*e <= 1e-12
}

// fillResources water-fills the common channel among MBS users and each FBS
// band among its users, given a fixed association in alloc.MBS, and records
// each resource's fill price in ws.fillLam.
func fillResources(in *Instance, alloc *Allocation, ws *solveWorkspace) {
	ws.fillLam = growF(ws.fillLam, in.N()+1)
	ws.fillLam[0] = fillCommon(in, alloc, ws)
	for i := 1; i <= in.N(); i++ {
		ws.fillLam[i] = fillFBS(in, alloc, i, ws)
	}
}

// fillCommon water-fills the common channel among the users associated with
// the MBS, on workspace scratch. The effective users are gathered straight
// into the flat waterfillColumns views, reusing the w/r quotients
// prepareUsers hoisted; users filtered out here are exactly those the
// scalar reference zeroed, so their shares are set to zero up front. It
// returns the fill's price.
func fillCommon(in *Instance, alloc *Allocation, ws *solveWorkspace) float64 {
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
	lambda := waterfillColumns(rho, ps, wr, caps, 1)
	for t, j := range idx {
		alloc.Rho0[j] = rho[t]
	}
	return lambda
}

// fillFBS water-fills FBS i's licensed band among its associated users, on
// workspace scratch, gathering the effective users into the flat
// waterfillColumns views like fillCommon, and returns the fill's price.
func fillFBS(in *Instance, alloc *Allocation, i int, ws *solveWorkspace) float64 {
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
	lambda := waterfillColumns(rhoI, ps, wr, caps, 1)
	for t, j := range idx {
		alloc.Rho1[j] = rhoI[t]
	}
	return lambda
}
