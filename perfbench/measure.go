package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
)

// spansDir is where a traced run writes its last replay's spans, relative
// to the working directory.
const spansDir = ".bench_build/spans"

// minReps is the fewest measured runs a benchmark run makes, however short
// its --seconds.
const minReps = 3

// Setup is timed in batches of calls lasting about setupSampleTarget each;
// setup_s is the median per-call time over at least setupSamples batches.
const (
	setupSamples      = 21
	setupSampleTarget = 10 * time.Millisecond
)

// bench is one benchmark run of one workload.
type bench struct {
	w       *workload
	seed    uint64
	budget  time.Duration
	refs    *references
	workers int

	t        tally
	want     float64 // psnr_db every run must reproduce bit for bit
	bound    float64 // the first run's eq. (23) ceiling (TrackBound only)
	first    *outcome
	refState string
	extra    map[string]any
}

// setupTimer times the workload's set-up in batches of calls. With tr
// non-nil every call is also recorded as spans.
type setupTimer struct {
	b       *bench
	tr      *tracer
	batch   int
	samples []float64
}

// newSetupTimer builds the workload's network once and sizes the batches
// from how long that took.
func (b *bench) newSetupTimer(tr *tracer) (*setupTimer, *netmodel.Network, error) {
	st := &setupTimer{b: b, tr: tr}
	t0 := wallNow()
	net, err := st.setup()
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	st.batch = max(1, int(setupSampleTarget/(time.Since(t0)+1)))
	b.extra["setup_calls_per_sample"] = st.batch
	return st, net, nil
}

func (st *setupTimer) setup() (*netmodel.Network, error) {
	if st.tr == nil {
		return st.b.w.setup()
	}
	sp := st.tr.begin(layerNewNetwork)
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), st.b.w.spec())
	st.tr.end(sp)
	if err == nil && st.b.w.engine == engineSharded {
		sp = st.tr.begin(layerPartition)
		_, err = net.Partition()
		st.tr.end(sp)
	}
	return net, err
}

// sample times one batch of set-up calls.
func (st *setupTimer) sample() error {
	t0 := wallNow()
	for i := 0; i < st.batch; i++ {
		if _, err := st.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	st.samples = append(st.samples, time.Since(t0).Seconds()/float64(st.batch))
	return nil
}

// fill takes batches until there are setupSamples of them, and returns the
// median seconds per call.
func (st *setupTimer) fill() (float64, error) {
	for len(st.samples) < setupSamples {
		if err := st.sample(); err != nil {
			return 0, err
		}
	}
	st.b.extra["setup_samples"] = len(st.samples)
	return median(st.samples), nil
}

// prepare makes the warm-up run and fixes the PSNR every later run must
// reproduce: the recorded reference for this seed, or, for a seed with no
// reference, the warm-up run's own result.
func (b *bench) prepare(net *netmodel.Network) error {
	want, ok, err := b.refs.lookup(b.w, b.seed)
	if err != nil {
		return err
	}
	o, err := b.w.run(net, b.seed, b.workers)
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	if ok {
		b.refState = "recorded"
	} else {
		want = o.psnr
		b.refState = "unrecorded: runs are checked against the first run and the traced replay"
	}
	b.want, b.bound, b.first = want, o.bound, o
	b.t.record(b.w.check(o, want))
	return nil
}

// untraced measures the end-to-end metrics with tracing off.
func (b *bench) untraced() (*result, error) {
	st, net, err := b.newSetupTimer(nil)
	if err != nil {
		return nil, err
	}
	if err := b.prepare(net); err != nil {
		return nil, err
	}
	var rate, cpu []float64
	start := wallNow()
	for len(rate) < minReps || time.Since(start) < b.budget {
		// One set-up batch between runs spreads the set-up samples over
		// the whole measurement, as the runs are, rather than timing set-up
		// in one burst that a brief slowdown of the machine can cover.
		if err := st.sample(); err != nil {
			return nil, err
		}
		c0 := cpuTime()
		t0 := wallNow()
		o, err := b.w.run(net, b.seed, b.workers)
		wall := time.Since(t0)
		c := cpuTime() - c0
		if err == nil {
			err = b.w.check(o, b.want)
		}
		b.t.record(err)
		if err != nil {
			if b.t.failed > 100*minReps && len(rate) < minReps {
				break // runs keep failing; stop and report what was collected
			}
			continue
		}
		rate = append(rate, float64(o.userSlots)/wall.Seconds())
		cpu = append(cpu, float64(c.Nanoseconds())/1e3/float64(o.userSlots))
	}
	setupS, err := st.fill()
	if err != nil {
		return nil, err
	}
	res := newResult(endToEnd, map[string]float64{
		"user_slots_per_s":     median(rate),
		"cpu_us_per_user_slot": median(cpu),
		"setup_s":              setupS,
		"peak_rss_mb":          peakRSSMB(),
		"psnr_db":              b.want,
	})
	b.extra["runs"] = len(rate)
	b.extra["user_slots_per_run"] = b.first.userSlots
	b.extra["user_slots_per_s_p10"] = quantile(rate, 0.10)
	b.extra["cpu_us_per_user_slot_p90"] = quantile(cpu, 0.90)

	// Checks after the measurement, so they cannot move the metrics.
	if b.w.engine == engineSharded {
		b.checkWorkersInvariance(net)
	}
	if b.refState != "recorded" {
		// With no recorded reference, the replay's independent slot
		// orchestration is the cross-check on the engine's result.
		b.t.record(b.checkedReplay(net, newTracer(), &replayCounts{}))
	}
	return res, nil
}

// checkWorkersInvariance reruns the sharded workload on one worker: the
// fold must be identical to the multi-worker result.
func (b *bench) checkWorkersInvariance(net *netmodel.Network) {
	o, err := b.w.run(net, b.seed, 1)
	if err == nil && !sameFold(o.sharded, b.first.sharded) {
		err = fmt.Errorf("sharded fold at Workers=1 differs from Workers=%d", b.workers)
	}
	b.t.record(err)
}

// checkHoldout runs the workload once at a held-out seed and checks it
// against that seed's reference when one is recorded.
func (b *bench) checkHoldout(seed uint64) {
	net, err := b.w.setup()
	var o *outcome
	if err == nil {
		o, err = b.w.run(net, seed, b.workers)
	}
	if err == nil {
		want, ok, lerr := b.refs.lookup(b.w, seed)
		switch {
		case lerr != nil:
			err = lerr
		case ok:
			err = b.w.check(o, want)
		default:
			err = b.w.check(o, o.psnr)
		}
		b.extra["holdout_seed"] = seed
		b.extra["holdout_psnr_db"] = o.psnr
		b.extra["holdout_reference"] = ok
	}
	b.t.record(err)
}

// traced alternates untraced runs with traced replays for the time budget
// and derives the per-layer metrics from the replays' spans.
func (b *bench) traced() (*result, error) {
	setupTr := newTracer()
	st, net, err := b.newSetupTimer(setupTr)
	if err != nil {
		return nil, err
	}
	if _, err := st.fill(); err != nil {
		return nil, err
	}
	var setupTotals layerTotals
	setupTotals.add(setupTr.spans)
	if err := b.prepare(net); err != nil {
		return nil, err
	}

	// The replay is single-goroutine, so its overhead is measured against
	// the untraced run on one worker; the multi-worker runs of the sharded
	// workload give the shard timing metrics.
	baseWorkers := b.workers
	if b.w.engine == engineSharded {
		baseWorkers = 1
	}
	tr := newTracer()
	var totals layerTotals
	var n replayCounts
	var untracedWall, tracedWall []float64
	var timings []*sim.ShardTiming
	replays := 0
	start := wallNow()
	for replays < minReps || time.Since(start) < b.budget {
		t0 := wallNow()
		o, err := b.w.run(net, b.seed, baseWorkers)
		wall := time.Since(t0)
		if err == nil {
			err = b.w.check(o, b.want)
		}
		b.t.record(err)
		if err == nil {
			untracedWall = append(untracedWall, wall.Seconds())
		}

		tr.reset()
		root := tr.begin(layerRun)
		err = b.checkedReplay(net, tr, &n)
		tr.end(root)
		b.t.record(err)
		replays++
		tracedWall = append(tracedWall, float64(tr.spans[root].End-tr.spans[root].Start)/1e9)
		totals.add(tr.spans)

		if b.w.engine == engineSharded {
			o, err := b.w.run(net, b.seed, b.workers)
			if err == nil {
				err = b.w.check(o, b.want)
			}
			b.t.record(err)
			if err == nil {
				timings = append(timings, o.sharded.Timing)
			}
		}
	}
	path, err := writeSpans(spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed), tr.spans)
	if err != nil {
		return nil, err
	}
	b.extra["spans_file"] = path
	b.extra["replays"] = replays

	// Heap allocations per Allocate, counted on a separate untimed pass.
	allocs := replayCounts{countAllocs: true}
	if b.w.engine == engineSharded || (b.w.engine == engineRate && net.Graph.NumEdges() > 0) {
		b.t.record(b.checkedReplay(net, newTracer(), &allocs))
	}
	p50, p99 := b.solveIters(net)

	wallNS := float64(totals.wallNS)
	share := func(l layer) float64 { return float64(totals.selfNS[l]) / wallNS }
	perCallUS := func(l layer) float64 { return ratio(float64(totals.selfNS[l])/1e3, float64(totals.calls[l])) }
	perSlotUS := func(l layer) float64 { return ratio(float64(totals.selfNS[l])/1e3, float64(n.slots)) }
	m := map[string]float64{
		"netmodel.new_network_ms":     ratio(float64(setupTotals.selfNS[layerNewNetwork])/1e6, float64(setupTotals.calls[layerNewNetwork])),
		"netmodel.partition_ms":       ratio(float64(totals.selfNS[layerPartition])/1e6, float64(replays)),
		"netmodel.partition.share":    share(layerPartition),
		"sim.frontend.step_us":        perCallUS(layerFrontend),
		"sim.frontend.share":          share(layerFrontend),
		"core.greedy.allocate_us":     perCallUS(layerGreedy),
		"core.greedy.qevals_per_slot": ratio(float64(n.qevals), float64(n.slots)),
		"core.greedy.us_per_qeval":    ratio(float64(totals.selfNS[layerGreedy])/1e3, float64(n.qevals)),
		"core.greedy.steps_per_qeval": ratio(float64(n.steps), float64(n.qevals)),
		"core.greedy.allocs_per_call": ratio(float64(allocs.allocs), float64(allocs.allocCalls)),
		"core.greedy.share":           share(layerGreedy),
		"core.solve.us_per_call":      perCallUS(layerSolve),
		"core.solve.calls_per_slot":   ratio(float64(n.solveCalls), float64(n.slots)),
		"core.solve.iters_p50":        p50,
		"core.solve.iters_p99":        p99,
		"core.solve.share":            share(layerSolve),
		"sim.realize.us_per_slot":     perSlotUS(layerRealize),
		"sim.realize.share":           share(layerRealize),
		"sim.shard.share":             share(layerShard),
		"packet.us_per_slot":          perSlotUS(layerPacket),
		"packet.retx_frac":            ratio(float64(n.retx), float64(n.sent)),
		"packet.share":                share(layerPacket),
		"trace.overhead_frac":         ratio(median(tracedWall), median(untracedWall)) - 1,
		"trace.unattributed_share":    share(layerRun),
	}
	for k, v := range shardMetrics(timings, b.workers) {
		m[k] = v
	}
	return newResult(perLayer, m), nil
}

// replay runs one traced replay of the workload and returns its mean PSNR
// and, on TrackBound workloads, its eq. (23) ceiling.
func (b *bench) replay(net *netmodel.Network, tr *tracer, n *replayCounts) (float64, float64, error) {
	switch b.w.engine {
	case engineSharded:
		psnr, err := replaySharded(net, b.seed, b.w.gops, tr, n)
		return psnr, 0, err
	case enginePacket:
		psnr, err := replayPacket(net, b.seed, b.w.gops, tr, n)
		return psnr, 0, err
	default:
		out, err := replayRate(net, b.seed, b.w.gops, b.w.trackBound, tr, n)
		if err != nil {
			return 0, 0, err
		}
		return out.meanPSNR, out.boundPSNR, nil
	}
}

// checkedReplay runs one replay and checks it: it must reproduce the
// untraced run bit for bit, and Theorem 2's floor must hold on every
// greedy slot.
func (b *bench) checkedReplay(net *netmodel.Network, tr *tracer, n *replayCounts) error {
	misses := n.floorMisses
	psnr, bound, err := b.replay(net, tr, n)
	if err != nil {
		return err
	}
	if n.floorMisses > misses {
		return fmt.Errorf("Theorem 2 floor missed on %d greedy slots", n.floorMisses-misses)
	}
	if math.Float64bits(psnr) != math.Float64bits(b.want) {
		return fmt.Errorf("traced replay psnr_db %v differs from the untraced %v", psnr, b.want)
	}
	if b.w.trackBound && math.Float64bits(bound) != math.Float64bits(b.bound) {
		return fmt.Errorf("traced replay eq. (23) ceiling %v differs from the untraced %v", bound, b.bound)
	}
	return nil
}

// solveIters reads the slot solver's iteration quantiles from Result.Warm
// of a SolveStats run on the workload's network. The stats run must
// reproduce the workload's PSNR. Quantiles read 0 where the workload's
// program records no slot-level solve: on interfering networks the solves
// run inside the greedy's Q-evaluations, and packetsim has no SolveStats.
func (b *bench) solveIters(net *netmodel.Network) (float64, float64) {
	if b.w.engine == enginePacket {
		return 0, 0
	}
	opts := sim.Options{Seed: b.seed, GOPs: b.w.gops, TrackBound: b.w.trackBound, SolveStats: true}
	var warm *sim.WarmStartReport
	var err error
	switch b.w.engine {
	case engineSharded:
		opts.Parallel = sim.Parallelism{Workers: b.workers}
		var res *sim.ShardedResult
		if res, err = sim.RunSharded(net, opts); err == nil {
			warm = res.Warm
			err = b.w.check(&outcome{psnr: res.MeanPSNR}, b.want)
		}
	default:
		var res *sim.Result
		if res, err = sim.Run(net, opts); err == nil {
			warm = res.Warm
			err = b.w.check(&outcome{psnr: res.MeanPSNR, bound: res.BoundPSNR}, b.want)
		}
	}
	if err == nil && warm == nil {
		err = fmt.Errorf("SolveStats run returned no iteration report")
	}
	b.t.record(err)
	if err != nil {
		return 0, 0
	}
	return math.Max(float64(warm.IterP50), 0), math.Max(float64(warm.IterP99), 0)
}

// shardMetrics derives the shard-level timing metrics of the multi-worker
// sharded runs; they read 0 on the other workloads.
func shardMetrics(timings []*sim.ShardTiming, workers int) map[string]float64 {
	var shardMS, maxMS, ideal, eff []float64
	for _, t := range timings {
		runMax := 0.0
		for _, ns := range t.ShardNS {
			ms := float64(ns) / 1e6
			shardMS = append(shardMS, ms)
			runMax = math.Max(runMax, ms)
		}
		maxMS = append(maxMS, runMax)
		ideal = append(ideal, t.IdealSpeedup())
		eff = append(eff, ratio(float64(t.SumTaskNS), float64(t.WallNS)*float64(workers)))
	}
	return map[string]float64{
		"sim.shard.run_ms_p50":    median(shardMS),
		"sim.shard.run_ms_max":    median(maxMS),
		"par.ideal_speedup":       median(ideal),
		"par.parallel_efficiency": median(eff),
	}
}

// recordReferences runs every workload once per seed and writes the
// reference table. specs are comma-separated seeds and inclusive ranges,
// e.g. "1-32,1001-1016".
func recordReferences(path string, specs []string) error {
	seeds, err := parseSeeds(strings.Join(specs, ","))
	if err != nil {
		return err
	}
	refs := &references{
		Note:  "psnr_db of every workload per seed, recorded with perfbench --record; JSON numbers round-trip float64 exactly",
		Sizes: map[string]string{},
		PSNR:  map[string]map[string]float64{},
	}
	for i := range workloads {
		w := &workloads[i]
		net, err := w.setup()
		if err != nil {
			return err
		}
		refs.Sizes[w.name] = w.size()
		refs.PSNR[w.name] = map[string]float64{}
		for _, s := range seeds {
			o, err := w.run(net, s, 0)
			if err == nil {
				err = w.check(o, o.psnr)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			refs.PSNR[w.name][strconv.FormatUint(s, 10)] = o.psnr
		}
		fmt.Fprintf(os.Stderr, "recorded %s at %d seeds\n", w.name, len(seeds))
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseSeeds(spec string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", part, err)
		}
		c := a
		if isRange {
			if c, err = strconv.ParseUint(hi, 10, 64); err != nil || c < a {
				return nil, fmt.Errorf("seed range %q", part)
			}
		}
		for s := a; s <= c; s++ {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds to record")
	}
	return seeds, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB: VmHWM from
// /proc/self/status, which starts afresh at exec, unlike ru_maxrss, which
// keeps the peak of the shell that exec'd the benchmark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs linearly; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
