// Package sim drives the end-to-end slot simulation of the paper's §V: per
// time slot it evolves primary-user occupancy, senses every licensed channel
// with errors, fuses the results into availability posteriors, makes the
// collision-bounded access decision, runs a resource-allocation scheme, and
// realizes packet losses over block-fading links. A delivery back-end turns
// each realized transmission into video quality: by default the W-recursion
// of problem (10), or the packet discipline of internal/packetsim (see
// Delivery).
package sim

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/par"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/spectrum"
	"femtocr/internal/stats"
	"femtocr/internal/trace"
)

// Scheme selects the resource-allocation scheme under test.
type Scheme int

// The three schemes compared throughout §V.
const (
	// Proposed is the paper's algorithm: the optimum-achieving solver for
	// non-interfering deployments and the greedy channel allocation of
	// Table III on interfering ones.
	Proposed Scheme = iota + 1
	// Heuristic1 is equal time allocation with local channel choice.
	Heuristic1
	// Heuristic2 is multiuser diversity: whole slots to the best users.
	Heuristic2
	// RoundRobin is an extension baseline: plain TDMA rotation with no
	// channel-state information (below both of the paper's heuristics).
	RoundRobin
	// MaxThroughput is an extension baseline at the opposite pole from
	// proportional fairness: maximize the expected quality sum with no
	// balance concern.
	MaxThroughput
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Proposed:
		return "Proposed"
	case Heuristic1:
		return "Heuristic 1"
	case Heuristic2:
		return "Heuristic 2"
	case RoundRobin:
		return "Round robin"
	case MaxThroughput:
		return "Max throughput"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ErrBadOptions is returned for invalid run options.
var ErrBadOptions = errors.New("sim: invalid options")

// Options configures one simulation run.
type Options struct {
	// Seed drives all stochastic processes of the run (channel occupancy,
	// sensing errors, access decisions, fading). Runs with different seeds
	// are the independent replications averaged in the figures.
	Seed uint64
	// GOPs is the number of GOPs to simulate per user. Default 20.
	GOPs int
	// Scheme selects the allocation scheme. Default Proposed.
	Scheme Scheme
	// SensorPolicy assigns user sensors to channels. Default RoundRobin.
	SensorPolicy sensing.AssignmentPolicy
	// TrackBound also tracks the eq. (23) upper-bound quality trajectory
	// (only meaningful for Proposed on interfering deployments).
	TrackBound bool
	// CaptureDualTrace runs the paper's distributed dual algorithm
	// (Table I/II) on the first slot and records its price trajectory
	// (Fig. 4(a)). Ignored for heuristic schemes.
	CaptureDualTrace bool
	// DualIterations caps the traced dual iterations. Default 800.
	DualIterations int
	// UseDualSolver makes Proposed use the distributed subgradient solver
	// for every slot instead of the faster price-equilibrium solver. The
	// two produce near-identical allocations; the default favors speed.
	UseDualSolver bool
	// DisableLazyGreedy forces the greedy allocator to re-evaluate every
	// user's marginal gain on every iteration — the literal Table III loop.
	// The zero value (lazy evaluation on) produces identical allocations
	// with fewer Q evaluations; set this only to cross-check the lazy
	// optimization or to time the unoptimized loop.
	DisableLazyGreedy bool
	// TrackBeliefs replaces the stationary fusion prior with the Bayesian
	// occupancy filter (extension; see internal/belief).
	TrackBeliefs bool
	// EstimateUtilization learns each channel's eta online from the FBS's
	// own sensing reports instead of assuming it known (extension; ignored
	// when TrackBeliefs is set).
	EstimateUtilization bool
	// WarmStart seeds each slot's solve from the previous slot's converged
	// dual state (core.SolverSession): channel occupancy is Markov, so
	// consecutive slots are strongly correlated and the warm seed converges
	// in a fraction of the cold iterations. Only the Proposed scheme's
	// slot-level solves are affected (the greedy channel explorer keeps its
	// own cold solves), and the repaired allocations are identical to the
	// cold path's — the default false is bit-identical to not having the
	// feature at all.
	WarmStart bool
	// SolveStats collects per-slot solver iteration statistics (cold or
	// warm, matching WarmStart) into Result.Warm. Off the allocation-free
	// fast path; costs one histogram per session.
	SolveStats bool
	// Recorder, when non-nil, receives slot-by-slot events for post-hoc
	// analysis (see internal/trace).
	Recorder *trace.Recorder
	// Parallel bundles the worker/shard knobs for RunSharded (see
	// par.Parallelism). Run itself is single-goroutine and ignores it.
	Parallel Parallelism
}

// Parallelism is the unified parallel-execution knob bundle shared with the
// experiment layer; see par.Parallelism.
type Parallelism = par.Parallelism

func (o *Options) withDefaults() Options {
	out := *o
	if out.GOPs == 0 {
		out.GOPs = 20
	}
	if out.Scheme == 0 {
		out.Scheme = Proposed
	}
	if out.SensorPolicy == 0 {
		out.SensorPolicy = sensing.RoundRobin
	}
	if out.DualIterations == 0 {
		out.DualIterations = 800
	}
	return out
}

// Result aggregates one run.
type Result struct {
	// PerUserPSNR is the mean end-of-GOP Y-PSNR of each user, dB.
	PerUserPSNR []float64
	// MeanPSNR averages PerUserPSNR over users.
	MeanPSNR float64
	// BoundPSNR is the mean upper-bound quality (eq. (23) converted to dB),
	// zero unless TrackBound was set.
	BoundPSNR float64
	// PerUserBound is each user's mean upper-bound quality, nil unless
	// TrackBound was set. BoundPSNR is its mean; the sharded engine re-sums
	// it in user order to fold bounds across shards bitwise.
	PerUserBound []float64
	// MinUserPSNR is the worst per-user mean quality — the user experience
	// floor, which proportional fairness is supposed to protect.
	MinUserPSNR float64
	// FairnessIndex is Jain's index over the users' quality gains
	// (PSNR above the base layer): 1 is perfectly even, 1/K fully
	// monopolized. This quantifies the paper's fairness claim for Fig. 3.
	FairnessIndex float64
	// CollisionRate is the worst per-channel conditional primary-user
	// collision rate observed — collisions divided by truly-busy slots, the
	// quantity eq. (6) bounds — which the access rule must keep near or
	// below gamma.
	CollisionRate float64
	// MeanExpectedChannels averages G_t over slots (diagnostic).
	MeanExpectedChannels float64
	// DualTrace is the per-iteration price trajectory of the first slot's
	// distributed solve, when CaptureDualTrace was set.
	DualTrace [][]float64
	// Warm reports the per-slot solver iteration statistics, nil unless
	// SolveStats was set. It is diagnostic metadata: exclude it from
	// determinism comparisons of allocations/quality (which do not depend
	// on it).
	Warm *WarmStartReport `json:",omitempty"`
	// GOPs is the number of completed GOPs per user.
	GOPs int
	// Slots is the number of simulated slots.
	Slots int
}

// Run simulates the network under the chosen scheme and returns the
// aggregated quality metrics.
func Run(net *netmodel.Network, opts Options) (*Result, error) {
	return RunDelivery(net, opts, nil)
}

// RunDelivery is Run with the delivery back-end d in place of the default
// rate accounting (nil keeps the default). The eq. (23) bound trajectory
// of TrackBound always uses rate accounting.
func RunDelivery(net *netmodel.Network, opts Options, d Delivery) (*Result, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadOptions)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.GOPs < 1 {
		return nil, fmt.Errorf("%w: GOPs=%d", ErrBadOptions, opts.GOPs)
	}

	e, err := newEngine(net, opts, d)
	if err != nil {
		return nil, err
	}
	totalSlots := opts.GOPs * net.T
	for slot := 0; slot < totalSlots; slot++ {
		if err := e.step(slot); err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	return e.result(), nil
}

// engine holds the per-run state.
type engine struct {
	net  *netmodel.Network
	opts Options

	front *Frontend
	deliv Delivery
	// bound is the eq. (23) upper-bound trajectory under rate accounting,
	// nil unless TrackBound.
	bound *rateDelivery

	fadeStream *rng.Stream

	solver      core.Solver
	greedy      *core.GreedyAllocator
	interfering bool

	// Static per-user constants of problem (10).
	r0, r1, ps0, ps1, wmax []float64
	fbsOf                  []int

	// Static channel split for the heuristic schemes on interfering
	// deployments (greedy-coloring frequency plan).
	colorOf   []int
	numColors int

	// Reusable per-slot state: the instance snapshot (instW/instG are its
	// backing arrays), the shallow view handed out by withG, the channel
	// vectors, the static assignment lists, the credited gains, and the
	// allocations written by SolveInto. All are owned by this engine and
	// overwritten every slot; the engine is single-goroutine by design.
	inst       core.Instance
	instView   core.Instance
	instW      []float64
	instG      []float64
	gVec       []float64
	relaxG     []float64
	assigned   [][]int
	gains      []float64
	alloc      *core.Allocation
	relaxAlloc *core.Allocation
	inflate    *core.Allocation
	chanProb   core.ChannelProblem

	// Warm-start plumbing: non-nil only when WarmStart or SolveStats is
	// requested and the scheme's solver supports sessions. The slot solves
	// and the TrackBound relaxation solves carry separate sessions — they
	// are different problem families, and seeding one from the other would
	// thrash both trackers. Sessions are engine-owned and single-goroutine
	// like everything else here; RunSharded gets per-shard sessions for
	// free because every shard builds its own engine.
	warmSolver   core.WarmSolver
	session      *core.SolverSession
	relaxSession *core.SolverSession

	dualTrace [][]float64
	sumG      float64
	slots     int
}

// newEngine builds the per-run state; a nil d selects the rate back-end.
func newEngine(net *netmodel.Network, opts Options, d Delivery) (*engine, error) {
	root := rng.New(opts.Seed)
	front, err := NewFrontend(net, root, opts.SensorPolicy)
	if err != nil {
		return nil, err
	}
	if opts.TrackBeliefs {
		front.EnableBeliefTracking()
	} else if opts.EstimateUtilization {
		if err := front.EnableUtilizationEstimation(); err != nil {
			return nil, err
		}
	}
	e := &engine{
		net:        net,
		opts:       opts,
		front:      front,
		fadeStream: root.Split("fading"),
	}

	k := net.K()
	e.r0 = make([]float64, k)
	e.r1 = make([]float64, k)
	e.ps0 = make([]float64, k)
	e.ps1 = make([]float64, k)
	e.wmax = make([]float64, k)
	e.fbsOf = make([]int, k)
	for j, u := range net.Users {
		e.r0[j] = u.Seq.RD.Beta * net.Band.B0() / float64(net.T)
		e.r1[j] = u.Seq.RD.Beta * net.Band.B1() / float64(net.T)
		e.ps0[j] = u.MBSLink.SuccessProbability()
		e.ps1[j] = u.FBSLink.SuccessProbability()
		e.wmax[j] = u.Seq.MaxPSNR()
		e.fbsOf[j] = u.FBS
	}
	e.deliv = d
	if d == nil {
		e.deliv = newRateDelivery(net, e.r0, e.r1)
	}
	if opts.TrackBound {
		e.bound = newRateDelivery(net, e.r0, e.r1)
	}

	e.interfering = net.Graph.NumEdges() > 0
	switch opts.Scheme {
	case Proposed:
		if opts.UseDualSolver {
			e.solver = core.NewDualSolver()
		} else {
			e.solver = &core.EquilibriumSolver{}
		}
		if e.interfering {
			var gopts []core.GreedyOption
			if !opts.DisableLazyGreedy {
				gopts = append(gopts, core.WithLazyEvaluation())
			}
			e.greedy = core.NewGreedyAllocator(e.solver, gopts...)
		}
	case Heuristic1:
		e.solver = core.Heuristic1{}
	case Heuristic2:
		e.solver = core.Heuristic2{}
	case RoundRobin:
		e.solver = &core.RoundRobin{}
	case MaxThroughput:
		e.solver = core.MaxThroughput{}
	default:
		return nil, fmt.Errorf("%w: unknown scheme %d", ErrBadOptions, int(opts.Scheme))
	}

	// Static frequency plan for schemes without per-slot channel
	// coordination: color the interference graph and let channel m serve
	// the FBSs of color (m mod numColors). Adjacent FBSs never share.
	e.colorOf, e.numColors = net.Graph.GreedyColoring()

	// Preallocate the per-slot buffers once.
	e.instW = make([]float64, k)
	e.instG = make([]float64, net.NumFBS)
	e.inst = core.Instance{
		W: e.instW, R0: e.r0, R1: e.r1, PS0: e.ps0, PS1: e.ps1,
		FBS: e.fbsOf, G: e.instG, WMax: e.wmax,
	}
	e.gVec = make([]float64, net.NumFBS)
	e.relaxG = make([]float64, net.NumFBS)
	e.assigned = make([][]int, net.NumFBS)
	e.gains = make([]float64, k)
	e.alloc = core.NewAllocation(k)
	e.relaxAlloc = core.NewAllocation(k)
	if opts.TrackBound {
		e.inflate = core.NewAllocation(k)
	}
	if ws, ok := e.solver.(core.WarmSolver); ok && (opts.WarmStart || opts.SolveStats) {
		e.warmSolver = ws
		if opts.WarmStart {
			e.session = core.NewSolverSession()
			e.relaxSession = core.NewSolverSession()
		} else {
			// Stats without warm starts: record the cold baseline through
			// seeding-disabled sessions, same instrumentation, same solves.
			e.session = core.NewColdProbeSession()
			e.relaxSession = core.NewColdProbeSession()
		}
		if opts.SolveStats {
			e.session.EnableStats()
		}
	}
	return e, nil
}

// withG returns the slot instance with a different expected-channel vector,
// on the engine's reusable shallow view. Each use ends before the next: the
// returned pointer must not be kept across withG calls.
func (e *engine) withG(g []float64) *core.Instance {
	e.instView = e.inst
	e.instView.G = g
	return &e.instView
}

// step simulates one time slot.
//
//femtovet:hotpath
func (e *engine) step(slot int) error {
	net := e.net
	if slot%net.T == 0 {
		if err := e.deliv.StartGOP(slot); err != nil {
			return err
		}
	}

	// Sensing and access phases (shared front half).
	st, err := e.front.Step(slot)
	if err != nil {
		return err
	}
	truth := st.Truth
	decision := st.Decision
	accessed := st.Accessed
	accessedPA := st.AccessedPA

	// Build the slot's problem instance.
	inst := e.instance()

	// Channel allocation: which FBS may use which accessed channel.
	var alloc *core.Allocation
	var gVec []float64
	var bound float64
	switch {
	case e.opts.Scheme == Proposed && e.interfering:
		e.chanProb = core.ChannelProblem{
			Base:       inst,
			Graph:      net.Graph,
			Channels:   accessed,
			Posteriors: accessedPA,
		}
		res, err := e.greedy.Allocate(&e.chanProb)
		if err != nil {
			return err
		}
		alloc = res.Alloc
		gVec = res.G
		bound = res.UpperBound
		if e.opts.TrackBound {
			// Intersect the eq. (23) bound with the interference-relaxation
			// bound: giving every FBS every accessed channel enlarges the
			// feasible set, so its optimum also caps the true optimum.
			totalPA := 0.0
			for _, pa := range accessedPA {
				totalPA += pa
			}
			relaxG := e.relaxG
			for i := range relaxG {
				relaxG[i] = totalPA
			}
			relaxed := e.withG(relaxG)
			if err := e.solve(relaxed, e.relaxAlloc, e.relaxSession); err != nil {
				return err
			}
			if v := e.relaxAlloc.Objective(relaxed); v < bound {
				bound = v
			}
		}
		// Transmission realization needs the channel->FBS map.
		if err := e.realize(alloc, res.Assigned, truth); err != nil {
			return err
		}
		e.record(slot, st, alloc)
		if e.opts.TrackBound {
			e.trackBound(e.withG(gVec), alloc, res.Value, bound, res.Assigned, truth)
		}
	default:
		// Non-interfering (or heuristic frequency plan): channel m serves
		// the FBSs its color class allows.
		assigned := e.staticAssignment(accessed)
		gVec = e.gVec
		for i := range gVec {
			gVec[i] = 0
		}
		for i := range assigned {
			for _, ch := range assigned[i] {
				gVec[i] += decision.Channels[ch-1].Posterior
			}
		}
		alloc = e.alloc
		if err := e.solve(e.withG(gVec), alloc, e.session); err != nil {
			return err
		}
		if err := e.realize(alloc, assigned, truth); err != nil {
			return err
		}
		e.record(slot, st, alloc)
	}
	e.sumG += decision.ExpectedAvailable()
	e.slots++

	// Dual-trace capture on the very first slot (Fig. 4(a)).
	if e.opts.CaptureDualTrace && slot == 0 && e.opts.Scheme == Proposed {
		if err := e.captureDualTrace(gVec); err != nil {
			return err
		}
	}

	// GOP boundary: record final PSNR and reset, per the delivery deadline.
	if (slot+1)%net.T == 0 {
		e.deliv.EndGOP()
		if e.bound != nil {
			e.bound.EndGOP()
		}
	}
	return nil
}

// solve runs one slot solve into out, warm-started from sess when the
// engine carries sessions.
func (e *engine) solve(in *core.Instance, out *core.Allocation, sess *core.SolverSession) error {
	if e.warmSolver != nil {
		return e.warmSolver.SolveWarmInto(in, out, sess)
	}
	return e.solver.SolveInto(in, out)
}

// captureDualTrace runs the paper's literal constant-step subgradient with a
// small step on the first slot's problem, which exhibits the long Fig. 4(a)
// trajectory (the default diminishing schedule converges within tens of
// iterations), and records the price trajectory.
//
//femtovet:coldpath -- first-slot-only diagnostic; builds a fresh traced solver and keeps the escaping price trajectory
func (e *engine) captureDualTrace(gVec []float64) error {
	tracer := core.NewDualSolver(
		core.WithTrace(),
		core.WithMaxIter(e.opts.DualIterations),
		core.WithPhi(-1), // never terminate early: full-horizon trace
		core.WithConstantStep(),
		core.WithStepScale(0.01),
	)
	g := gVec
	if g == nil {
		g = make([]float64, e.net.NumFBS)
	}
	_, report, err := tracer.SolveDetailed(e.withG(g))
	if err != nil {
		return err
	}
	e.dualTrace = report.Trace
	return nil
}

// record forwards the slot's events to the configured trace recorder.
func (e *engine) record(slot int, st *SlotState, alloc *core.Allocation) {
	rec := e.opts.Recorder
	if rec == nil {
		return
	}
	collisions := 0
	for _, ch := range st.Accessed {
		if !st.Truth.Idle(ch) {
			collisions++
		}
	}
	// Recording errors cannot occur for engine-generated events; ignore the
	// returns to keep the hot path simple.
	_ = rec.RecordSlot(trace.SlotEvent{
		Slot:         slot,
		IdleChannels: st.Truth.NumIdle(),
		Accessed:     len(st.Accessed),
		ExpectedG:    st.Decision.ExpectedAvailable(),
		Collisions:   collisions,
	})
	gopDone := (slot+1)%e.net.T == 0
	for j, gain := range e.gains {
		share := alloc.Rho1[j]
		if alloc.MBS[j] {
			share = alloc.Rho0[j]
		}
		_ = rec.RecordUser(trace.UserEvent{
			Slot:    slot,
			User:    j,
			OnMBS:   alloc.MBS[j],
			Share:   share,
			GainDB:  gain,
			PSNR:    e.deliv.PSNR(j),
			GOPDone: gopDone,
		})
	}
}

// staticAssignment maps accessed channels to FBSs without per-slot
// coordination. With no interference every FBS reuses every channel; with
// interference, channel m serves the color class (m mod numColors) of the
// greedy-coloring frequency plan.
func (e *engine) staticAssignment(accessed []int) [][]int {
	n := e.net.NumFBS
	assigned := e.assigned
	for i := range assigned {
		assigned[i] = assigned[i][:0]
	}
	if !e.interfering {
		for i := 0; i < n; i++ {
			assigned[i] = append(assigned[i], accessed...)
		}
		return assigned
	}
	for idx, ch := range accessed {
		class := idx % e.numColors
		for i := 0; i < n; i++ {
			if e.colorOf[i] == class {
				assigned[i] = append(assigned[i], ch)
			}
		}
	}
	return assigned
}

// instance refreshes the slot's user problem on the engine's reusable
// snapshot: only W changes between slots; G is the zero vector until a
// channel allocation assigns one via withG.
func (e *engine) instance() *core.Instance {
	for j := range e.instW {
		e.instW[j] = e.deliv.PSNR(j)
	}
	for i := range e.instG {
		e.instG[i] = 0
	}
	return &e.inst
}

// transmission draws user j's slot outcome under alloc. An MBS user sends
// its time share; an FBS user sends its share on every channel, among those
// assigned to its FBS, that is truly idle (transmissions on busy channels
// collide and are lost). A fading loss is drawn only for a nonzero share.
func (e *engine) transmission(j int, alloc *core.Allocation, assigned [][]int, truth spectrum.Occupancy) (onMBS bool, share float64, lost bool) {
	if alloc.MBS[j] {
		if alloc.Rho0[j] > 0 {
			return true, alloc.Rho0[j], e.net.Users[j].MBSLink.Lost(e.fadeStream)
		}
		return true, 0, false
	}
	idle := 0
	if alloc.Rho1[j] > 0 {
		for _, ch := range assigned[e.fbsOf[j]-1] {
			if truth.Idle(ch) {
				idle++
			}
		}
	}
	if idle == 0 {
		return false, 0, false
	}
	return false, alloc.Rho1[j] * float64(idle), e.net.Users[j].FBSLink.Lost(e.fadeStream)
}

// realize draws every user's transmission in user order and hands it to
// the delivery back-end, keeping the credited gains for the recorder.
func (e *engine) realize(alloc *core.Allocation, assigned [][]int, truth spectrum.Occupancy) error {
	for j := range e.gains {
		onMBS, share, lost := e.transmission(j, alloc, assigned, truth)
		g, err := e.deliv.Deliver(j, onMBS, share, lost)
		if err != nil {
			return err
		}
		e.gains[j] = g
	}
	return nil
}

// trackBound advances the upper-bound quality trajectory: the eq. (23)
// objective bound is converted to per-user quality by inflating every
// user's expected gain by the common factor theta >= 1 that makes the
// objective meet the bound, then applying the same realization discipline
// with fresh fading draws.
func (e *engine) trackBound(in *core.Instance, alloc *core.Allocation, value, upper float64, assigned [][]int, truth spectrum.Occupancy) {
	theta := gainInflation(in, alloc, value, upper, e.inflate)
	for j, p := range e.bound.progress {
		onMBS, share, lost := e.transmission(j, alloc, assigned, truth)
		p.AddPSNR(theta * e.bound.gain(j, onMBS, share, lost))
	}
}

// gainInflation finds theta >= 1 such that inflating every user's allocated
// quality increment by theta lifts the slot objective from value to upper.
// scratch, when non-nil, is a k-sized allocation reused across the ~100
// bisection evaluations; every entry is overwritten before being read.
func gainInflation(in *core.Instance, alloc *core.Allocation, value, upper float64, scratch *core.Allocation) float64 {
	if upper <= value {
		return 1
	}
	if scratch == nil {
		scratch = core.NewAllocation(in.K())
	}
	obj := func(theta float64) float64 {
		cp := scratch
		copy(cp.MBS, alloc.MBS)
		for j := range cp.Rho0 {
			cp.Rho0[j] = alloc.Rho0[j] * theta
			cp.Rho1[j] = alloc.Rho1[j] * theta
		}
		return cp.Objective(in)
	}
	lo, hi := 1.0, 2.0
	for i := 0; i < 40 && obj(hi) < upper; i++ {
		hi *= 2
		if hi > 1e6 {
			break
		}
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if obj(mid) < upper {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// result finalizes the run metrics.
func (e *engine) result() *Result {
	k := e.net.K()
	res := &Result{
		PerUserPSNR: make([]float64, k),
		GOPs:        e.slots / e.net.T,
		Slots:       e.slots,
		DualTrace:   e.dualTrace,
		Warm:        e.warmReport(),
	}
	sum := 0.0
	gains := make([]float64, k)
	res.MinUserPSNR = math.Inf(1)
	for j := range res.PerUserPSNR {
		m := e.deliv.MeanPSNR(j)
		res.PerUserPSNR[j] = m
		sum += m
		gains[j] = m - e.net.Users[j].Seq.RD.Alpha
		if m < res.MinUserPSNR {
			res.MinUserPSNR = m
		}
	}
	res.MeanPSNR = sum / float64(k)
	res.FairnessIndex = stats.JainIndex(gains)
	if e.bound != nil {
		res.PerUserBound = make([]float64, k)
		bsum := 0.0
		for j, p := range e.bound.progress {
			res.PerUserBound[j] = p.MeanPSNR()
			bsum += p.MeanPSNR()
		}
		res.BoundPSNR = bsum / float64(k)
	}
	res.CollisionRate = e.front.CollisionRate()
	if e.slots > 0 {
		res.MeanExpectedChannels = e.sumG / float64(e.slots)
	}
	return res
}
