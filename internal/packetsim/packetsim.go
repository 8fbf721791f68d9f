// Package packetsim is the packet-level delivery back-end of the slot
// engine in internal/sim. The engine runs the same sensing/access front
// half, the same allocation schemes and the same fading draws as sim.Run;
// this package only changes what a transmitted share becomes: explicit
// NAL-unit transmission queues, ARQ retransmissions, and deadline discards,
// per the paper's §III-E delivery discipline ("video packets are
// transmitted in the decreasing order of their significances, with
// retransmissions if necessary; overdue packets will be discarded").
//
// The default rate accounting of internal/sim credits expected quality
// increments directly; this back-end moves bytes. The two agree on scheme
// ordering and track each other's quality closely, which the integration
// tests assert.
package packetsim

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/netmodel"
	"femtocr/internal/packet"
	"femtocr/internal/sensing"
	"femtocr/internal/sim"
	"femtocr/internal/video"
)

// ErrBadOptions is returned for invalid run options.
var ErrBadOptions = errors.New("packetsim: invalid options")

// Options configures one packet-level run.
type Options struct {
	// Seed drives all randomness, as in sim.Options.
	Seed uint64
	// GOPs simulated per user. Default 20.
	GOPs int
	// Scheme selects the allocation scheme. Default sim.Proposed.
	Scheme sim.Scheme
	// SensorPolicy assigns user sensors to channels. Default RoundRobin.
	SensorPolicy sensing.AssignmentPolicy
	// MGSLayers is the number of MGS enhancement layers per frame in the
	// synthesized encodings. Default 3.
	MGSLayers int
	// EncodeRateFactor scales each sequence's saturation rate to set the
	// encoded GOP rate (MGS truncation then adapts downward). Default 1.
	EncodeRateFactor float64
	// AdaptiveRate re-encodes each user's next GOP at an EWMA of its
	// recently delivered throughput (with 25% headroom), instead of always
	// encoding at the saturation rate. Cuts overdue discards sharply while
	// keeping quality: the sender stops queueing enhancement data the
	// channel cannot carry.
	AdaptiveRate bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.GOPs == 0 {
		out.GOPs = 20
	}
	if out.Scheme == 0 {
		out.Scheme = sim.Proposed
	}
	if out.SensorPolicy == 0 {
		out.SensorPolicy = sensing.RoundRobin
	}
	if out.MGSLayers == 0 {
		out.MGSLayers = 3
	}
	if out.EncodeRateFactor == 0 {
		out.EncodeRateFactor = 1
	}
	return out
}

// Result aggregates one packet-level run.
type Result struct {
	// PerUserPSNR is each user's mean end-of-GOP reconstructed quality.
	PerUserPSNR []float64
	// MeanPSNR averages PerUserPSNR.
	MeanPSNR float64
	// DeliveredBytes is the total acknowledged payload.
	DeliveredBytes int
	// Retransmissions counts ARQ retransmissions across users.
	Retransmissions int
	// DroppedPackets counts overdue discards across users.
	DroppedPackets int
	// SentPackets counts transmissions (including retransmissions).
	SentPackets int
	// FairnessIndex is Jain's index over per-user quality gains.
	FairnessIndex float64
	// CollisionRate is the worst realized per-channel conditional collision
	// rate (collisions over truly-busy slots, the eq. (6) quantity).
	CollisionRate float64
	// GOPs is the number of completed GOPs per user.
	GOPs int
}

// Run simulates packet-level delivery for the network under the scheme.
func Run(net *netmodel.Network, opts Options) (*Result, error) {
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
	if f := opts.EncodeRateFactor; f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("%w: EncodeRateFactor=%v", ErrBadOptions, f)
	}

	d, err := newDelivery(net, opts)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunDelivery(net, sim.Options{
		Seed:         opts.Seed,
		GOPs:         opts.GOPs,
		Scheme:       opts.Scheme,
		SensorPolicy: opts.SensorPolicy,
	}, d)
	if errors.Is(err, sim.ErrBadOptions) {
		return nil, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	if err != nil {
		return nil, err
	}
	out := &Result{
		PerUserPSNR:     res.PerUserPSNR,
		MeanPSNR:        res.MeanPSNR,
		DeliveredBytes:  d.dBytes,
		Retransmissions: d.retrans,
		SentPackets:     d.sent,
		FairnessIndex:   res.FairnessIndex,
		CollisionRate:   res.CollisionRate,
		GOPs:            res.GOPs,
	}
	for _, q := range d.queues {
		out.DroppedPackets += q.Dropped()
	}
	return out, nil
}

// delivery is the packet back-end (sim.Delivery): per-user transmission
// queues filled a GOP at a time and the receivers that decode them.
type delivery struct {
	net  *netmodel.Network
	opts Options

	queues    []*packet.Queue
	receivers []*packet.Receiver
	gops      []video.GOP // the encoded layout of each user's next GOP

	// Slot duration in seconds: GOP playout time divided by the deadline T.
	slotSeconds float64

	retrans int
	sent    int
	dBytes  int
	gopIdx  int

	// Rate adaptation state: delivered bytes in the current GOP and an EWMA
	// of per-GOP delivered rate (Mbps), per user.
	gopBytes []int
	ewmaRate []float64
}

func newDelivery(net *netmodel.Network, opts Options) (*delivery, error) {
	k := net.K()
	d := &delivery{
		net:       net,
		opts:      opts,
		queues:    make([]*packet.Queue, k),
		receivers: make([]*packet.Receiver, k),
		gops:      make([]video.GOP, k),
		gopBytes:  make([]int, k),
		ewmaRate:  make([]float64, k),
	}
	for j, u := range net.Users {
		d.queues[j] = &packet.Queue{}
		d.receivers[j] = packet.NewReceiver(u.Seq)
		g, err := video.BuildGOP(u.Seq, net.GOPSize, opts.MGSLayers,
			u.Seq.MaxRateMbps*opts.EncodeRateFactor)
		if err != nil {
			return nil, err
		}
		d.gops[j] = g
		// Start the EWMA at half the saturation rate: optimistic but
		// bounded, converging within a few GOPs.
		d.ewmaRate[j] = u.Seq.MaxRateMbps / 2
	}
	// Every user shares the slot clock; use the first sequence's timing.
	seq := net.Users[0].Seq
	d.slotSeconds = float64(net.GOPSize) / seq.FPS / float64(net.T)
	return d, nil
}

// PSNR is the quality user j would decode if the GOP ended now.
func (d *delivery) PSNR(j int) float64 { return d.receivers[j].CurrentPSNR() }

// MeanPSNR is user j's mean reconstructed quality over the closed GOPs.
func (d *delivery) MeanPSNR(j int) float64 { return d.receivers[j].MeanPSNR() }

// StartGOP discards what the last deadline left behind and enqueues every
// user's next GOP, re-encoded first when AdaptiveRate is on.
func (d *delivery) StartGOP(slot int) error {
	deadline := slot + d.net.T - 1
	for j, q := range d.queues {
		q.DropOverdue(slot)
		if d.opts.AdaptiveRate && slot > 0 {
			if err := d.adaptRate(j); err != nil {
				return err
			}
		}
		if err := q.EnqueueGOP(j, d.gopIdx, d.gops[j], deadline); err != nil {
			return err
		}
		d.receivers[j].StartGOP(d.gopIdx, d.gops[j])
	}
	d.gopIdx++
	return nil
}

// Deliver moves the bytes the share carries through user j's queue: a
// fading loss turns the sends into ARQ retransmissions.
func (d *delivery) Deliver(j int, onMBS bool, share float64, lost bool) (float64, error) {
	if share <= 0 {
		return 0, nil
	}
	band := d.net.Band.B1()
	if onMBS {
		band = d.net.Band.B0()
	}
	rateMbps := share * band
	budget := int(rateMbps * 1e6 / 8 * d.slotSeconds)
	rx := d.receivers[j]
	before := rx.CurrentPSNR()
	rep, delivered, err := packet.TransmitSlot(d.queues[j], budget, lost)
	if err != nil {
		return 0, err
	}
	d.sent += rep.Sent
	d.retrans += rep.Retransmissions
	d.dBytes += rep.DeliveredBytes
	d.gopBytes[j] += rep.DeliveredBytes
	rx.Accept(delivered)
	return rx.CurrentPSNR() - before, nil
}

// EndGOP closes out every receiver's quality accounting.
func (d *delivery) EndGOP() {
	for _, rx := range d.receivers {
		rx.EndGOP()
	}
}

// adaptRate folds the finished GOP's delivered throughput into user j's
// EWMA and re-encodes the next GOP at 1.25x that estimate, clamped to
// [10%, 100%] of the sequence's saturation rate.
func (d *delivery) adaptRate(j int) error {
	gopSeconds := d.slotSeconds * float64(d.net.T)
	measured := float64(d.gopBytes[j]) * 8 / 1e6 / gopSeconds
	d.gopBytes[j] = 0
	const alpha = 0.3
	d.ewmaRate[j] = (1-alpha)*d.ewmaRate[j] + alpha*measured

	seq := d.net.Users[j].Seq
	target := 1.25 * d.ewmaRate[j]
	if min := 0.1 * seq.MaxRateMbps; target < min {
		target = min
	}
	if target > seq.MaxRateMbps*d.opts.EncodeRateFactor {
		target = seq.MaxRateMbps * d.opts.EncodeRateFactor
	}
	g, err := video.BuildGOP(seq, d.net.GOPSize, d.opts.MGSLayers, target)
	if err != nil {
		return err
	}
	d.gops[j] = g
	return nil
}
