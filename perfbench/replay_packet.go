package main

import (
	"fmt"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/packet"
	"femtocr/internal/rng"
	"femtocr/internal/sim"
	"femtocr/internal/video"
)

// packetReplay mirrors packetsim.Run's engine for the Proposed scheme on a
// non-interfering network: the allocating Solve on a freshly built
// instance every slot, then NAL-unit transmission through per-user ARQ
// queues and receivers.
type packetReplay struct {
	net *netmodel.Network
	tr  *tracer
	n   *replayCounts

	front     *sim.Frontend
	fade      *rng.Stream
	solver    *core.EquilibriumSolver
	queues    []*packet.Queue
	receivers []*packet.Receiver
	gops      []video.GOP

	r0, r1, ps0, ps1, wmax []float64
	fbsOf                  []int
	slotSeconds            float64
	gopIdx                 int
	lost                   []bool
	active                 []bool
	rate                   []float64
}

// replayPacket runs gops GOPs of the packet engine on net under seed and
// returns the mean PSNR as packetsim.Result reports it.
func replayPacket(net *netmodel.Network, seed uint64, gops int, tr *tracer, n *replayCounts) (float64, error) {
	if err := net.Validate(); err != nil {
		return 0, err
	}
	if net.Graph.NumEdges() > 0 {
		return 0, fmt.Errorf("packet replay covers non-interfering networks only")
	}
	root := rng.New(seed)
	front, err := sim.NewFrontend(net, root, 0)
	if err != nil {
		return 0, err
	}
	k := net.K()
	r := &packetReplay{
		net: net, tr: tr, n: n,
		front:     front,
		fade:      root.Split("fading"),
		solver:    &core.EquilibriumSolver{},
		queues:    make([]*packet.Queue, k),
		receivers: make([]*packet.Receiver, k),
		gops:      make([]video.GOP, k),
		r0:        make([]float64, k),
		r1:        make([]float64, k),
		ps0:       make([]float64, k),
		ps1:       make([]float64, k),
		wmax:      make([]float64, k),
		fbsOf:     make([]int, k),
		lost:      make([]bool, k),
		active:    make([]bool, k),
		rate:      make([]float64, k),
	}
	for j, u := range net.Users {
		r.queues[j] = &packet.Queue{}
		r.receivers[j] = packet.NewReceiver(u.Seq)
		// packetsim's defaults: three MGS layers at the saturation rate.
		g, err := video.BuildGOP(u.Seq, net.GOPSize, 3, u.Seq.MaxRateMbps)
		if err != nil {
			return 0, err
		}
		r.gops[j] = g
		r.r0[j] = u.Seq.RD.Beta * net.Band.B0() / float64(net.T)
		r.r1[j] = u.Seq.RD.Beta * net.Band.B1() / float64(net.T)
		r.ps0[j] = u.MBSLink.SuccessProbability()
		r.ps1[j] = u.FBSLink.SuccessProbability()
		r.wmax[j] = u.Seq.MaxPSNR()
		r.fbsOf[j] = u.FBS
	}
	r.slotSeconds = float64(net.GOPSize) / net.Users[0].Seq.FPS / float64(net.T)

	total := gops * net.T
	for slot := 0; slot < total; slot++ {
		if err := r.step(slot); err != nil {
			return 0, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	n.slots += int64(total)
	sum := 0.0
	for _, rc := range r.receivers {
		sum += rc.MeanPSNR()
	}
	return sum / float64(k), nil
}

func (r *packetReplay) step(slot int) error {
	net, tr := r.net, r.tr
	k := net.K()

	if slot%net.T == 0 {
		sp := tr.begin(layerPacket)
		deadline := slot + net.T - 1
		for j := range r.queues {
			r.queues[j].DropOverdue(slot)
			if err := r.queues[j].EnqueueGOP(j, r.gopIdx, r.gops[j], deadline); err != nil {
				tr.end(sp)
				return err
			}
			r.receivers[j].StartGOP(r.gopIdx, r.gops[j])
		}
		r.gopIdx++
		tr.end(sp)
	}

	sp := tr.begin(layerFrontend)
	st, err := r.front.Step(slot)
	tr.end(sp)
	if err != nil {
		return err
	}

	w := make([]float64, k)
	sp = tr.begin(layerPacket)
	for j := range w {
		w[j] = r.receivers[j].CurrentPSNR()
	}
	tr.end(sp)
	inst := &core.Instance{
		W: w, R0: r.r0, R1: r.r1, PS0: r.ps0, PS1: r.ps1, FBS: r.fbsOf,
		G: make([]float64, net.NumFBS), WMax: r.wmax,
	}
	assigned := make([][]int, net.NumFBS)
	g := make([]float64, net.NumFBS)
	for i := range assigned {
		assigned[i] = append([]int(nil), st.Accessed...)
		for _, ch := range assigned[i] {
			g[i] += st.Decision.Channels[ch-1].Posterior
		}
	}
	sp = tr.begin(layerSolve)
	alloc, err := r.solver.Solve(inst.WithG(g))
	tr.end(sp)
	if err != nil {
		return err
	}
	r.n.solveCalls++

	// Loss draws first, in user order and under the engine's conditions;
	// transmission consumes no randomness, so splitting the loop keeps
	// every draw in place.
	sp = tr.begin(layerRealize)
	for j := 0; j < k; j++ {
		r.active[j] = false
		if alloc.MBS[j] {
			if alloc.Rho0[j] <= 0 {
				continue
			}
			r.rate[j] = alloc.Rho0[j] * net.Band.B0()
			r.lost[j] = net.Users[j].MBSLink.Lost(r.fade)
		} else {
			if alloc.Rho1[j] <= 0 {
				continue
			}
			idle := 0
			for _, ch := range assigned[r.fbsOf[j]-1] {
				if st.Truth.Idle(ch) {
					idle++
				}
			}
			if idle == 0 {
				continue
			}
			r.rate[j] = alloc.Rho1[j] * float64(idle) * net.Band.B1()
			r.lost[j] = net.Users[j].FBSLink.Lost(r.fade)
		}
		r.active[j] = true
	}
	tr.end(sp)

	sp = tr.begin(layerPacket)
	defer tr.end(sp)
	for j := 0; j < k; j++ {
		if !r.active[j] {
			continue
		}
		budget := int(r.rate[j] * 1e6 / 8 * r.slotSeconds)
		rep, delivered, err := packet.TransmitSlot(r.queues[j], budget, r.lost[j])
		if err != nil {
			return err
		}
		r.n.sent += int64(rep.Sent)
		r.n.retx += int64(rep.Retransmissions)
		r.receivers[j].Accept(delivered)
	}
	if (slot+1)%net.T == 0 {
		for j := range r.receivers {
			r.receivers[j].EndGOP()
		}
	}
	return nil
}
