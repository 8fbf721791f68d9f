package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"femtocr/internal/netmodel"
	"femtocr/internal/stats"
)

// TestParallelDeterminism is the tentpole regression: the worker pool must
// produce byte-identical figures for any worker count, because every run
// derives all randomness from its own seed and aggregation happens strictly
// after the join, in task-index order. Run under -race this also proves the
// grid is data-race-free.
func TestParallelDeterminism(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Params) (*stats.Figure, error)
	}{
		{"Fig3", Fig3},
		{"Fig5", Fig5},
		{"GammaTradeoff", GammaTradeoff},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var baseline string
			for _, w := range workerCounts {
				p := QuickParams()
				p.Parallel.Workers = w
				fig, err := d.run(p)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				csv := fig.CSV()
				if w == workerCounts[0] {
					baseline = csv
					continue
				}
				if csv != baseline {
					t.Fatalf("workers=%d CSV differs from workers=%d:\n%s\nvs\n%s",
						w, workerCounts[0], csv, baseline)
				}
			}
		})
	}
}

// TestWorkersPrecedence pins the worker-count resolution: a positive
// Parallel.Workers is taken as given, and zero or a negative value means
// "use every CPU".
func TestWorkersPrecedence(t *testing.T) {
	nCPU := runtime.GOMAXPROCS(0)
	cases := []struct {
		name     string
		parallel int
		want     int
	}{
		{"positive taken as given", 3, 3},
		{"negative uses every CPU", -1, nCPU},
		{"unset uses every CPU", 0, nCPU},
	}
	for _, c := range cases {
		p := QuickParams()
		p.Parallel.Workers = c.parallel
		if got := p.workers(); got != c.want {
			t.Errorf("%s: workers() = %d, want %d (Parallel.Workers=%d)",
				c.name, got, c.want, c.parallel)
		}
	}
}

// TestTopologyStudyDeterminism covers the solver-level driver, whose
// randomness flows through pre-split per-trial streams rather than sim
// seeds.
func TestTopologyStudyDeterminism(t *testing.T) {
	base, err := TopologyStudy(42, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := TopologyStudy(42, 6, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(base), len(par))
	}
	for i := range base {
		if base[i] != par[i] {
			t.Fatalf("point %d differs:\nworkers=1: %+v\nworkers=4: %+v", i, base[i], par[i])
		}
	}
}

// TestRunGridRunsEveryTaskOnce checks the dispatch accounting: every index
// exactly once, any worker count.
func TestRunGridRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 50
		counts := make([]atomic.Int32, n)
		if err := runGrid(n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

// failureGate makes the tasks a grid dispatches after its failing task
// wait on that task. The failing task calls fail, which records its
// worker's goroutine; every later task calls await, which returns once
// that goroutine has exited. A worker records a task's failure and stores
// the grid's stop flag before it exits, so a task released by await cannot
// lead its worker to start another. Without the gate, tasks as short as
// these can all be dispatched before the failure is recorded.
type failureGate struct{ gid atomic.Int64 }

func (g *failureGate) fail() { g.gid.Store(goroutineID()) }

func (g *failureGate) await() {
	buf := make([]byte, 1<<16)
	for {
		if id := g.gid.Load(); id != 0 {
			n := runtime.Stack(buf, true)
			for n == len(buf) {
				buf = make([]byte, 2*len(buf))
				n = runtime.Stack(buf, true)
			}
			if !bytes.Contains(buf[:n], []byte(fmt.Sprintf("goroutine %d [", id))) {
				return
			}
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// goroutineID parses the calling goroutine's ID from its stack header,
// "goroutine N [running]:".
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.ParseInt(strings.Fields(string(buf[:n]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunGridCancelsOnError checks the failure path: after the first task
// error the remaining undispatched tasks are skipped, and the lowest-index
// recorded error is surfaced. Tasks after the failing index wait on the
// failing task (failureGate).
func TestRunGridCancelsOnError(t *testing.T) {
	const n = 200
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var executed atomic.Int32
		var gate failureGate
		err := runGrid(n, workers, func(i int) error {
			executed.Add(1)
			if i == 5 {
				gate.fail()
				return fmt.Errorf("task %d: %w", i, boom)
			}
			if i > 5 {
				gate.await()
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if got := executed.Load(); got >= n {
			t.Fatalf("workers=%d: all %d tasks ran despite the error at index 5", workers, got)
		}
		if workers == 1 && executed.Load() != 6 {
			t.Fatalf("sequential path ran %d tasks, want exactly 6", executed.Load())
		}
	}
}

// TestRunGridReturnsLowestIndexError: when several tasks fail, the error a
// sequential loop would have hit first (among those that ran) is the one
// surfaced.
func TestRunGridReturnsLowestIndexError(t *testing.T) {
	err := runGrid(8, 4, func(i int) error {
		return fmt.Errorf("task %d failed", i)
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "task 0 failed") &&
		!strings.Contains(err.Error(), "task 1 failed") &&
		!strings.Contains(err.Error(), "task 2 failed") &&
		!strings.Contains(err.Error(), "task 3 failed") {
		t.Fatalf("err = %v, want one of the first dispatched tasks", err)
	}
}

// TestSweepSurfacesPointContext injects a mid-grid failure — a network that
// passes the builder but fails sim.Run's validation — and checks the error
// carries its sweep point and scheme context and unwraps to the cause.
func TestSweepSurfacesPointContext(t *testing.T) {
	p := QuickParams()
	p.Parallel.Workers = 4
	xs := []float64{1, 2, 3}
	fig, err := sweep(p, "failure injection", "x", xs,
		func(p Params, x float64) (*netmodel.Network, error) {
			net, err := netmodel.PaperSingleFBS(p.Config)
			if err != nil {
				return nil, err
			}
			if x == 2 { //femtovet:ignore floateq -- grid-key comparison, exact by design
				net.Gamma = 1.5 // passes the builder, fails sim.Run validation
			}
			return net, nil
		}, false)
	if err == nil {
		t.Fatalf("expected a mid-grid error, got figure %v", fig)
	}
	if !errors.Is(err, netmodel.ErrBadNetwork) {
		t.Fatalf("err = %v, want wrapped netmodel.ErrBadNetwork", err)
	}
	if !strings.Contains(err.Error(), "x=2") {
		t.Fatalf("err %q lacks the sweep-point context", err)
	}
	if !strings.Contains(err.Error(), "scheme=") {
		t.Fatalf("err %q lacks the scheme context", err)
	}
}

// TestMergeSummaryMatchesSummarize: the index-ordered Running.Merge fold
// used by the parallel aggregation must agree with the direct summary on
// the statistics the figures report.
func TestMergeSummaryMatchesSummarize(t *testing.T) {
	xs := []float64{31.2, 29.8, 33.1, 30.5, 28.9}
	merged, err := mergeSummary(xs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := stats.Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if merged.N != direct.N {
		t.Fatalf("N %d vs %d", merged.N, direct.N)
	}
	if diff := merged.Mean - direct.Mean; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("mean %v vs %v", merged.Mean, direct.Mean)
	}
	if diff := merged.HalfWidth - direct.HalfWidth; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("half-width %v vs %v", merged.HalfWidth, direct.HalfWidth)
	}
	if _, err := mergeSummary(nil); !errors.Is(err, stats.ErrNoData) {
		t.Fatalf("empty merge err = %v, want ErrNoData", err)
	}
}

// TestRunGridRecoversPanic: a panicking task must come back as an error
// naming the failing index — on both the sequential and pooled paths — not
// as a process-killing stack trace. Run under -race this also proves the
// recovery path itself is race-free. As in TestRunGridCancelsOnError, the
// tasks after the panicking one wait on it (failureGate).
func TestRunGridRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var executed atomic.Int32
		var gate failureGate
		err := runGrid(40, workers, func(i int) error {
			executed.Add(1)
			if i == 7 {
				gate.fail()
				panic("bad grid point")
			}
			if i > 7 {
				gate.await()
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		if !strings.Contains(err.Error(), "task 7 panicked") ||
			!strings.Contains(err.Error(), "bad grid point") {
			t.Fatalf("workers=%d: err = %v, want the panicking task's index and value", workers, err)
		}
		if got := executed.Load(); got >= 40 {
			t.Fatalf("workers=%d: all %d tasks ran despite the panic at index 7", workers, got)
		}
	}
	// A non-string panic value must survive the conversion too.
	err := runGrid(3, 1, func(i int) error {
		if i == 2 {
			panic(errors.New("wrapped cause"))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 2 panicked: wrapped cause") {
		t.Fatalf("err = %v, want task 2's panic value formatted in", err)
	}
}

// TestMergeSummaryBitwiseSequential pins mergeSummary to its reference: a
// plain sequential stats.Running accumulation over the same xs, folding one
// single-observation accumulator per element in index order. Equality is
// bitwise (struct ==, no tolerance): if mergeSummary is ever rewritten as a
// chunked or tree-shaped merge — tempting at metro scale — the fold order
// changes, the float rounding changes, and replication output silently
// shifts; this test turns that into a hard failure. Lengths 0 and 1 cover
// the no-data error and the degenerate single-observation summary.
func TestMergeSummaryBitwiseSequential(t *testing.T) {
	base := []float64{31.2, 29.8, 33.1, 30.5, 28.9, 1e-9, 7, math.Pi,
		-4.25, 1e9, 0.1, 2.2, -31.7, 0, 55.5, 1e-300, 42}
	for _, n := range []int{0, 1, 2, 5, len(base)} {
		xs := base[:n]
		var acc stats.Running
		for _, x := range xs { // the reference: sequential, index order
			var one stats.Running
			one.Add(x)
			acc.Merge(&one)
		}
		want, werr := acc.Summary()
		got, gerr := mergeSummary(xs)
		if n == 0 {
			if !errors.Is(gerr, stats.ErrNoData) || !errors.Is(werr, stats.ErrNoData) {
				t.Fatalf("n=0: errs = (%v, %v), want ErrNoData from both", gerr, werr)
			}
			continue
		}
		if gerr != nil || werr != nil {
			t.Fatalf("n=%d: errs = (%v, %v)", n, gerr, werr)
		}
		if got != want {
			t.Fatalf("n=%d: mergeSummary %+v differs bitwise from the sequential fold %+v", n, got, want)
		}
	}
}

// TestRunGridErrorAtLastIndex: an error at the final dispatched index has no
// undispatched tasks left to cancel; it must still be recorded and surfaced
// after the join rather than lost to an already-drained queue.
func TestRunGridErrorAtLastIndex(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 4} {
		err := runGrid(n, workers, func(i int) error {
			if i == n-1 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("task %d failed", n-1)) {
			t.Fatalf("workers=%d: err = %v, want the last index's error", workers, err)
		}
	}
}

// TestRunGridConcurrentErrorsLowestWins forces two workers to fail at the
// same instant — both tasks rendezvous at a barrier before erroring, so
// neither failure can cancel the other — and checks the join still reports
// the lowest-index error, exactly what a sequential loop would have hit.
func TestRunGridConcurrentErrorsLowestWins(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := runGrid(2, 2, func(i int) error {
		barrier.Done()
		barrier.Wait() // both tasks are now committed to failing
		return fmt.Errorf("task %d failed", i)
	})
	if err == nil || !strings.Contains(err.Error(), "task 0 failed") {
		t.Fatalf("err = %v, want task 0's error to win deterministically", err)
	}
}

// TestGammaTradeoffProtectsPrimaryUsers is the end-to-end acceptance check
// for the collision-accounting fix: across the gamma sweep, the realized
// worst-channel conditional collision rate must stay within sampling noise
// of the threshold (mean <= gamma + 3 standard errors).
func TestGammaTradeoffProtectsPrimaryUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-gamma sweep at confidence scale")
	}
	// Result.CollisionRate is the max over M channels of a per-channel
	// proportion, so its expectation sits above gamma by an order-statistic
	// bias that shrinks as 1/sqrt(busy slots). GOPs=200 (2000 slots per run,
	// matching sim's long-run collision test) keeps that bias inside the
	// 0.02 slack below.
	p := Params{Runs: 3, GOPs: 200, BaseSeed: 1000}
	fig, err := GammaTradeoff(p)
	if err != nil {
		t.Fatal(err)
	}
	coll := fig.Curve("Realized collision rate")
	if coll == nil || coll.Len() == 0 {
		t.Fatal("collision curve missing")
	}
	for i := 0; i < coll.Len(); i++ {
		gamma, s := coll.At(i)
		stderr := s.StdDev / math.Sqrt(float64(s.N))
		if s.Mean > gamma+3*stderr+0.02 {
			t.Errorf("gamma=%v: realized conditional rate %.4f exceeds gamma + 3*stderr (+slack), stderr=%.4f",
				gamma, s.Mean, stderr)
		}
		if s.Mean == 0 {
			t.Errorf("gamma=%v: zero realized collision rate; access rule looks inert", gamma)
		}
	}
}
