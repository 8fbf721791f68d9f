package sim

// Slot-engine benchmarks: the cost of one simulated GOP per scheme and
// deployment, the driver of every figure's wall-clock time.

import (
	"testing"

	"femtocr/internal/netmodel"
)

func benchNet(b testing.TB, interfering bool) *netmodel.Network {
	b.Helper()
	var (
		net *netmodel.Network
		err error
	)
	if interfering {
		net, err = netmodel.PaperInterfering(netmodel.DefaultConfig())
	} else {
		net, err = netmodel.PaperSingleFBS(netmodel.DefaultConfig())
	}
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func benchRun(b *testing.B, net *netmodel.Network, opts Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i) + 1
		opts.GOPs = 1
		if _, err := Run(net, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSlotStep measures the steady-state cost of one simulated slot: the
// engine is built once outside the timer, then stepped b.N slots. This is
// the hot path BENCH_hotpath.json tracks for allocation regressions — after
// engine construction the per-slot loop should be allocation-free.
func benchSlotStep(b *testing.B, interfering bool, opts Options) {
	b.Helper()
	net := benchNet(b, interfering)
	opts.Seed = 1
	opts.GOPs = 1
	e, err := newEngine(net, opts.withDefaults(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.step(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlotStepProposedSingle(b *testing.B) {
	benchSlotStep(b, false, Options{Scheme: Proposed})
}

func BenchmarkSlotStepProposedSingleDualSolver(b *testing.B) {
	benchSlotStep(b, false, Options{Scheme: Proposed, UseDualSolver: true})
}

func BenchmarkSlotStepProposedInterfering(b *testing.B) {
	benchSlotStep(b, true, Options{Scheme: Proposed})
}

func BenchmarkGOPProposedSingle(b *testing.B) {
	benchRun(b, benchNet(b, false), Options{Scheme: Proposed})
}

func BenchmarkGOPProposedSingleDualSolver(b *testing.B) {
	benchRun(b, benchNet(b, false), Options{Scheme: Proposed, UseDualSolver: true})
}

func BenchmarkGOPProposedInterfering(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Proposed})
}

func BenchmarkGOPProposedInterferingEagerGreedy(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Proposed, DisableLazyGreedy: true})
}

func BenchmarkGOPProposedInterferingWithBound(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Proposed, TrackBound: true})
}

func BenchmarkGOPHeuristic1Interfering(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Heuristic1})
}

func BenchmarkGOPHeuristic2Interfering(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Heuristic2})
}
