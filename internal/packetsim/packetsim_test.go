package packetsim

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
)

func singleNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n, err := netmodel.PaperSingleFBS(netmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nil net err = %v", err)
	}
	net := singleNet(t)
	if _, err := Run(net, Options{GOPs: -2}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad GOPs err = %v", err)
	}
	if _, err := Run(net, Options{Scheme: sim.Scheme(42)}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad scheme err = %v", err)
	}
	for _, f := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(net, Options{EncodeRateFactor: f}); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("rate factor %v err = %v", f, err)
		}
	}
	broken := *net
	broken.T = 0
	if _, err := Run(&broken, Options{}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	net := singleNet(t)
	a, err := Run(net, Options{Seed: 3, GOPs: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, Options{Seed: 3, GOPs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanPSNR != b.MeanPSNR || a.DeliveredBytes != b.DeliveredBytes ||
		a.Retransmissions != b.Retransmissions {
		t.Fatal("same seed produced different packet-level results")
	}
}

func TestRunAccounting(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 1, GOPs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.GOPs != 8 {
		t.Fatalf("GOPs = %d", res.GOPs)
	}
	if len(res.PerUserPSNR) != net.K() {
		t.Fatalf("per-user len %d", len(res.PerUserPSNR))
	}
	for j, p := range res.PerUserPSNR {
		alpha := net.Users[j].Seq.RD.Alpha
		if p < alpha-1e-9 || p > net.Users[j].Seq.MaxPSNR()+1e-9 {
			t.Fatalf("user %d PSNR %v out of range", j, p)
		}
	}
	if res.DeliveredBytes <= 0 || res.SentPackets <= 0 {
		t.Fatal("nothing was transmitted")
	}
	if res.MeanPSNR <= net.Users[0].Seq.RD.Alpha {
		t.Fatal("no quality improvement: packets not reaching receivers")
	}
}

// TestRateConservation: delivered payload cannot exceed the theoretical
// channel-capacity upper bound of the run.
func TestRateConservation(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 5, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	slots := 10 * net.T
	slotSeconds := float64(net.GOPSize) / net.Users[0].Seq.FPS / float64(net.T)
	// Capacity bound: the common channel plus all M licensed channels at
	// full rate for every slot.
	capBytes := (net.Band.B0() + float64(net.Band.M())*net.Band.B1()) *
		1e6 / 8 * slotSeconds * float64(slots)
	if float64(res.DeliveredBytes) > capBytes {
		t.Fatalf("delivered %d bytes, capacity bound %v", res.DeliveredBytes, capBytes)
	}
}

// TestSchemesDiffer: the three schemes must produce distinct packet-level
// outcomes, with Proposed leading on quality (averaged over seeds).
func TestSchemesDiffer(t *testing.T) {
	net := singleNet(t)
	means := make(map[sim.Scheme]float64)
	for _, sch := range []sim.Scheme{sim.Proposed, sim.Heuristic1, sim.Heuristic2} {
		sum := 0.0
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 8, Scheme: sch})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeanPSNR
		}
		means[sch] = sum / 5
	}
	if means[sim.Proposed] <= means[sim.Heuristic2]-0.3 {
		t.Fatalf("proposed %v clearly below H2 %v", means[sim.Proposed], means[sim.Heuristic2])
	}
	if means[sim.Proposed] <= means[sim.Heuristic1]-0.3 {
		t.Fatalf("proposed %v clearly below H1 %v", means[sim.Proposed], means[sim.Heuristic1])
	}
}

// TestMatchesRateBasedEngine: the packet-level and rate-based engines must
// agree on quality within a couple of dB — they model the same system at
// different granularity.
func TestMatchesRateBasedEngine(t *testing.T) {
	net := singleNet(t)
	var pkSum, rateSum float64
	const runs = 5
	for seed := uint64(1); seed <= runs; seed++ {
		pk, err := Run(net, Options{Seed: seed, GOPs: 10})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sim.Run(net, sim.Options{Seed: seed, GOPs: 10})
		if err != nil {
			t.Fatal(err)
		}
		pkSum += pk.MeanPSNR
		rateSum += rt.MeanPSNR
	}
	gap := math.Abs(pkSum-rateSum) / runs
	if gap > 2.5 {
		t.Fatalf("packet-level %v vs rate-based %v: gap %v dB too large",
			pkSum/runs, rateSum/runs, gap)
	}
}

// TestInterferingPacketLevel: the interfering scenario runs with the greedy
// allocator at packet granularity.
func TestInterferingPacketLevel(t *testing.T) {
	net, err := netmodel.PaperInterfering(netmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, Options{Seed: 2, GOPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSNR <= 0 || res.DeliveredBytes <= 0 {
		t.Fatal("interfering packet run produced nothing")
	}
}

// TestDropsScaleWithEncodeRate: encoding above the channel's capability
// must increase overdue drops; MGS truncation absorbs the excess.
func TestDropsScaleWithEncodeRate(t *testing.T) {
	net := singleNet(t)
	low, err := Run(net, Options{Seed: 4, GOPs: 8, EncodeRateFactor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(net, Options{Seed: 4, GOPs: 8, EncodeRateFactor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if high.DroppedPackets <= low.DroppedPackets {
		t.Fatalf("drops: rate x1.5 %d <= rate x0.3 %d", high.DroppedPackets, low.DroppedPackets)
	}
}

// TestRetransmissionsHappen: with lossy links, ARQ must fire.
func TestRetransmissionsHappen(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 6, GOPs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Fatal("no retransmissions over 200 slots of lossy links")
	}
	if res.Retransmissions >= res.SentPackets {
		t.Fatalf("retransmissions %d >= sends %d", res.Retransmissions, res.SentPackets)
	}
}

func TestCollisionRateTracked(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 7, GOPs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionRate <= 0 || res.CollisionRate > net.Gamma+0.1 {
		t.Fatalf("collision rate %v implausible (gamma %v)", res.CollisionRate, net.Gamma)
	}
}

// TestAdaptiveRateCutsDrops: re-encoding each GOP near the delivered
// throughput slashes overdue discards without sacrificing quality.
func TestAdaptiveRateCutsDrops(t *testing.T) {
	net := singleNet(t)
	var fixedDrops, adaptDrops int
	var fixedPSNR, adaptPSNR float64
	const runs = 4
	for seed := uint64(1); seed <= runs; seed++ {
		fixed, err := Run(net, Options{Seed: seed, GOPs: 20})
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := Run(net, Options{Seed: seed, GOPs: 20, AdaptiveRate: true})
		if err != nil {
			t.Fatal(err)
		}
		fixedDrops += fixed.DroppedPackets
		adaptDrops += adapt.DroppedPackets
		fixedPSNR += fixed.MeanPSNR
		adaptPSNR += adapt.MeanPSNR
	}
	if adaptDrops >= fixedDrops {
		t.Fatalf("adaptive drops %d not below fixed %d", adaptDrops, fixedDrops)
	}
	if adaptPSNR < fixedPSNR-runs*1.0 {
		t.Fatalf("adaptation cost too much quality: %v vs %v", adaptPSNR/runs, fixedPSNR/runs)
	}
	t.Logf("drops: fixed %d -> adaptive %d; PSNR %.2f -> %.2f",
		fixedDrops, adaptDrops, fixedPSNR/runs, adaptPSNR/runs)
}
