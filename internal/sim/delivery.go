package sim

import (
	"femtocr/internal/netmodel"
	"femtocr/internal/video"
)

// Delivery is the delivery back-end of the slot engine. The engine owns the
// decision half of every slot — sensing, fusion, access, channel
// allocation and the slot solve — and the block-fading loss draws; the
// back-end owns what a transmitted share becomes at the receiver. The
// default back-end is the rate accounting of problem (10)'s W-recursion;
// internal/packetsim supplies the §III-E packet discipline (NAL queues,
// ARQ, overdue discards).
//
// Back-ends are single-goroutine, like the engine that drives them.
type Delivery interface {
	// PSNR is user j's current decodable quality W_j^t, dB: the W the
	// slot's problem instance is built from.
	PSNR(j int) float64
	// MeanPSNR is user j's mean end-of-GOP quality over the closed GOPs.
	MeanPSNR(j int) float64
	// StartGOP runs at the first slot of every GOP, before its front half.
	StartGOP(slot int) error
	// Deliver hands user j its transmission of the slot. share is the
	// allocated time share, times the truly idle channels it rides for an
	// FBS user, and zero when the user sends nothing; lost is the fading
	// outcome the engine drew for a nonzero share. It returns the quality
	// increment credited to W_j, dB.
	Deliver(j int, onMBS bool, share float64, lost bool) (float64, error)
	// EndGOP closes every user's GOP at the delivery deadline.
	EndGOP()
}

// rateDelivery is the default back-end: a delivered share credits its
// quality increment directly to the user's W-recursion.
type rateDelivery struct {
	r0, r1   []float64 // per-user PSNR per unit share, the instance's R0/R1
	progress []*video.Progress
}

func newRateDelivery(net *netmodel.Network, r0, r1 []float64) *rateDelivery {
	d := &rateDelivery{r0: r0, r1: r1, progress: make([]*video.Progress, net.K())}
	for j, u := range net.Users {
		d.progress[j] = video.NewProgress(u.Seq)
	}
	return d
}

// gain is the quality increment of user j's transmission: nothing when it
// sends nothing or fading loses it, its share times the per-unit rate
// otherwise.
func (d *rateDelivery) gain(j int, onMBS bool, share float64, lost bool) float64 {
	switch {
	case share <= 0 || lost:
		return 0
	case onMBS:
		return share * d.r0[j]
	default:
		return share * d.r1[j]
	}
}

func (d *rateDelivery) PSNR(j int) float64 { return d.progress[j].PSNR() }

func (d *rateDelivery) MeanPSNR(j int) float64 { return d.progress[j].MeanPSNR() }

func (d *rateDelivery) StartGOP(int) error { return nil }

func (d *rateDelivery) Deliver(j int, onMBS bool, share float64, lost bool) (float64, error) {
	g := d.gain(j, onMBS, share, lost)
	d.progress[j].AddPSNR(g)
	return g, nil
}

func (d *rateDelivery) EndGOP() {
	for _, p := range d.progress {
		p.EndGOP()
	}
}
