package main

import (
	"fmt"
	"runtime"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
	"femtocr/internal/sim"
	"femtocr/internal/spectrum"
	"femtocr/internal/video"
)

// The traced replay re-runs a workload's slot pipeline from outside the
// simulator, through the same public layer functions the engines call and
// in the same order, so every random draw lands where it does in the
// untraced run and the replay's PSNR equals the engine's bit for bit. Each
// call into a layer is wrapped in a span.

// replayCounts are the work counts recorded at the layer boundaries.
type replayCounts struct {
	slots       int64 // simulated slots, summed over shards
	qevals      int64 // GreedyResult.Evaluations
	steps       int64 // len(GreedyResult.Steps): useful greedy steps
	solveCalls  int64 // slot and relaxation solves
	floorMisses int64 // slots where Theorem 2's floor did not hold
	sent        int64 // packet fragment transmissions
	retx        int64 // packet retransmissions

	// countAllocs brackets every Allocate with runtime.ReadMemStats, which
	// stops the world, so only the untimed counting pass sets it.
	countAllocs bool
	allocCalls  int64 // Allocate calls counted
	allocs      int64 // heap allocations inside them
}

// rateReplay mirrors sim.Run's engine for the Proposed scheme with the
// equilibrium solver: lazy greedy channel allocation on interfering
// deployments, one slot solve per slot otherwise.
type rateReplay struct {
	net        *netmodel.Network
	trackBound bool
	tr         *tracer
	n          *replayCounts

	front       *sim.Frontend
	fade        *rng.Stream
	progress    []*video.Progress
	bound       []*video.Progress
	solver      *core.EquilibriumSolver
	greedy      *core.GreedyAllocator
	interfering bool

	r0, r1, ps0, ps1, wmax []float64
	fbsOf                  []int

	inst, view        core.Instance
	instW, instG      []float64
	gVec, relaxG      []float64
	assigned          [][]int
	alloc             *core.Allocation
	relaxAlloc        *core.Allocation
	inflate           *core.Allocation
	chanProb          core.ChannelProblem
	msBefore, msAfter runtime.MemStats
}

// rateOutcome is what the replay keeps of a run: the per-user mean PSNR and
// the means sim.Result reports.
type rateOutcome struct {
	perUser   []float64
	meanPSNR  float64
	boundPSNR float64
}

func newRateReplay(net *netmodel.Network, seed uint64, trackBound bool, tr *tracer, n *replayCounts) (*rateReplay, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	front, err := sim.NewFrontend(net, root, 0)
	if err != nil {
		return nil, err
	}
	k := net.K()
	r := &rateReplay{
		net: net, trackBound: trackBound, tr: tr, n: n,
		front:       front,
		fade:        root.Split("fading"),
		progress:    make([]*video.Progress, k),
		solver:      &core.EquilibriumSolver{},
		interfering: net.Graph.NumEdges() > 0,
		r0:          make([]float64, k),
		r1:          make([]float64, k),
		ps0:         make([]float64, k),
		ps1:         make([]float64, k),
		wmax:        make([]float64, k),
		fbsOf:       make([]int, k),
		instW:       make([]float64, k),
		instG:       make([]float64, net.NumFBS),
		gVec:        make([]float64, net.NumFBS),
		relaxG:      make([]float64, net.NumFBS),
		assigned:    make([][]int, net.NumFBS),
		alloc:       core.NewAllocation(k),
		relaxAlloc:  core.NewAllocation(k),
	}
	for j, u := range net.Users {
		r.progress[j] = video.NewProgress(u.Seq)
		r.r0[j] = u.Seq.RD.Beta * net.Band.B0() / float64(net.T)
		r.r1[j] = u.Seq.RD.Beta * net.Band.B1() / float64(net.T)
		r.ps0[j] = u.MBSLink.SuccessProbability()
		r.ps1[j] = u.FBSLink.SuccessProbability()
		r.wmax[j] = u.Seq.MaxPSNR()
		r.fbsOf[j] = u.FBS
	}
	if trackBound {
		r.bound = make([]*video.Progress, k)
		for j, u := range net.Users {
			r.bound[j] = video.NewProgress(u.Seq)
		}
		r.inflate = core.NewAllocation(k)
	}
	if r.interfering {
		r.greedy = core.NewGreedyAllocator(r.solver, core.WithLazyEvaluation())
	}
	r.inst = core.Instance{
		W: r.instW, R0: r.r0, R1: r.r1, PS0: r.ps0, PS1: r.ps1,
		FBS: r.fbsOf, G: r.instG, WMax: r.wmax,
	}
	return r, nil
}

// replayRate runs gops GOPs of the rate engine on net under seed.
func replayRate(net *netmodel.Network, seed uint64, gops int, trackBound bool, tr *tracer, n *replayCounts) (*rateOutcome, error) {
	r, err := newRateReplay(net, seed, trackBound, tr, n)
	if err != nil {
		return nil, err
	}
	total := gops * net.T
	for slot := 0; slot < total; slot++ {
		if err := r.step(slot); err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	n.slots += int64(total)
	return r.result(), nil
}

func (r *rateReplay) withG(g []float64) *core.Instance {
	r.view = r.inst
	r.view.G = g
	return &r.view
}

func (r *rateReplay) step(slot int) error {
	tr := r.tr
	sp := tr.begin(layerFrontend)
	st, err := r.front.Step(slot)
	tr.end(sp)
	if err != nil {
		return err
	}

	for j := range r.instW {
		r.instW[j] = r.progress[j].PSNR()
	}
	for i := range r.instG {
		r.instG[i] = 0
	}
	inst := &r.inst

	if r.interfering {
		r.chanProb = core.ChannelProblem{
			Base: inst, Graph: r.net.Graph,
			Channels: st.Accessed, Posteriors: st.AccessedPA,
		}
		if r.n.countAllocs {
			runtime.ReadMemStats(&r.msBefore)
		}
		sp = tr.begin(layerGreedy)
		res, err := r.greedy.Allocate(&r.chanProb)
		tr.end(sp)
		if r.n.countAllocs {
			runtime.ReadMemStats(&r.msAfter)
			r.n.allocCalls++
			r.n.allocs += int64(r.msAfter.Mallocs - r.msBefore.Mallocs)
		}
		if err != nil {
			return err
		}
		r.n.qevals += int64(res.Evaluations)
		r.n.steps += int64(len(res.Steps))
		// Theorem 2: the greedy value is at least 1/(1+Dmax) of the
		// optimum, which the eq. (23) bound caps from above.
		if !(res.Value >= res.LowerBoundFactor*res.UpperBound) {
			r.n.floorMisses++
		}
		bound := res.UpperBound
		if r.trackBound {
			totalPA := 0.0
			for _, pa := range st.AccessedPA {
				totalPA += pa
			}
			for i := range r.relaxG {
				r.relaxG[i] = totalPA
			}
			relaxed := r.withG(r.relaxG)
			sp = tr.begin(layerSolve)
			err = r.solver.SolveInto(relaxed, r.relaxAlloc)
			tr.end(sp)
			if err != nil {
				return err
			}
			r.n.solveCalls++
			if v := r.relaxAlloc.Objective(relaxed); v < bound {
				bound = v
			}
		}
		sp = tr.begin(layerRealize)
		r.realize(r.withG(res.G), res.Alloc, res.Assigned, st.Truth)
		if r.trackBound {
			r.advanceBound(r.withG(res.G), res.Alloc, res.Value, bound, res.Assigned, st.Truth)
		}
		r.endGOP(slot)
		tr.end(sp)
		return nil
	}

	// Non-interfering: every FBS reuses every accessed channel.
	for i := range r.assigned {
		r.assigned[i] = append(r.assigned[i][:0], st.Accessed...)
	}
	for i := range r.gVec {
		r.gVec[i] = 0
		for _, ch := range r.assigned[i] {
			r.gVec[i] += st.Decision.Channels[ch-1].Posterior
		}
	}
	withG := r.withG(r.gVec)
	sp = tr.begin(layerSolve)
	err = r.solver.SolveInto(withG, r.alloc)
	tr.end(sp)
	if err != nil {
		return err
	}
	r.n.solveCalls++
	sp = tr.begin(layerRealize)
	r.realize(withG, r.alloc, r.assigned, st.Truth)
	r.endGOP(slot)
	tr.end(sp)
	return nil
}

// realize draws the slot's losses and credits the delivered quality, as
// the engine does.
func (r *rateReplay) realize(in *core.Instance, alloc *core.Allocation, assigned [][]int, truth spectrum.Occupancy) {
	for j := 0; j < in.K(); j++ {
		r.progress[j].AddPSNR(r.slotGain(in, alloc, assigned, truth, j))
	}
}

// slotGain realizes user j's quality increment for the slot, drawing its
// link loss from the fading stream.
func (r *rateReplay) slotGain(in *core.Instance, alloc *core.Allocation, assigned [][]int, truth spectrum.Occupancy, j int) float64 {
	u := &r.net.Users[j]
	if alloc.MBS[j] {
		if alloc.Rho0[j] > 0 && !u.MBSLink.Lost(r.fade) {
			return alloc.Rho0[j] * r.r0[j]
		}
		return 0
	}
	if alloc.Rho1[j] <= 0 {
		return 0
	}
	idle := 0
	for _, ch := range assigned[in.FBS[j]-1] {
		if truth.Idle(ch) {
			idle++
		}
	}
	if idle > 0 && !u.FBSLink.Lost(r.fade) {
		return alloc.Rho1[j] * float64(idle) * r.r1[j]
	}
	return 0
}

// advanceBound moves the eq. (23) upper-bound quality trajectory: every
// user's realized gain is inflated by the common factor that lifts the slot
// objective from value to upper.
func (r *rateReplay) advanceBound(in *core.Instance, alloc *core.Allocation, value, upper float64, assigned [][]int, truth spectrum.Occupancy) {
	theta := r.inflation(in, alloc, value, upper)
	for j := 0; j < in.K(); j++ {
		r.bound[j].AddPSNR(theta * r.slotGain(in, alloc, assigned, truth, j))
	}
}

// inflation bisects for theta >= 1 with Objective(theta*alloc) = upper,
// with the engine's bracket and iteration counts.
func (r *rateReplay) inflation(in *core.Instance, alloc *core.Allocation, value, upper float64) float64 {
	if upper <= value {
		return 1
	}
	obj := func(theta float64) float64 {
		cp := r.inflate
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

func (r *rateReplay) endGOP(slot int) {
	if (slot+1)%r.net.T != 0 {
		return
	}
	for _, p := range r.progress {
		p.EndGOP()
	}
	for _, p := range r.bound {
		p.EndGOP()
	}
}

// result sums per-user means in user order, as sim.Result does.
func (r *rateReplay) result() *rateOutcome {
	out := &rateOutcome{perUser: make([]float64, len(r.progress))}
	sum := 0.0
	for j, p := range r.progress {
		out.perUser[j] = p.MeanPSNR()
		sum += p.MeanPSNR()
	}
	out.meanPSNR = sum / float64(len(r.progress))
	if r.bound != nil {
		bsum := 0.0
		for _, p := range r.bound {
			bsum += p.MeanPSNR()
		}
		out.boundPSNR = bsum / float64(len(r.bound))
	}
	return out
}

// replaySharded mirrors sim.RunSharded with one worker: partition, then
// each component's engine under its ShardSeed, folded in component order.
func replaySharded(net *netmodel.Network, seed uint64, gops int, tr *tracer, n *replayCounts) (float64, error) {
	sp := tr.begin(layerPartition)
	shards, err := net.Partition()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for c := range shards {
		sp = tr.begin(layerPartition)
		sub, err := net.Subnetwork(&shards[c])
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", c, err)
		}
		sp = tr.begin(layerShard)
		res, err := replayRate(sub, sim.ShardSeed(seed, c), gops, false, tr, n)
		if err == nil {
			shardSum := 0.0
			for _, v := range res.perUser {
				shardSum += v
			}
			sum += shardSum
		}
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", c, err)
		}
	}
	return sum / float64(net.K()), nil
}
