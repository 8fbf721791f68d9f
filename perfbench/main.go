// Command perfbench is femtocr's end-to-end benchmark. It runs one named
// workload through the simulator's public entry points (netmodel.NewNetwork,
// sim.Run, sim.RunSharded, packetsim.Run), checks every output against a
// recorded reference, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--holdout-seed <n>]
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it alternates untraced runs with a traced replay of the same
// slot pipeline (see replay.go) and reports per-layer metrics instead.
// Run it through perfbench/run.sh, which builds it from source; README.md
// lists the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of a --trace 0 run.
var endToEnd = []metricDef{
	{"user_slots_per_s", "1/s"},
	{"cpu_us_per_user_slot", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"psnr_db", "dB"},
}

// perLayer are the metrics of a --trace 1 run. A metric of a layer the
// workload never calls reads 0.
var perLayer = []metricDef{
	{"netmodel.new_network_ms", "ms"},
	{"netmodel.partition_ms", "ms"},
	{"netmodel.partition.share", "share"},
	{"sim.frontend.step_us", "us"},
	{"sim.frontend.share", "share"},
	{"core.greedy.allocate_us", "us"},
	{"core.greedy.qevals_per_slot", "count"},
	{"core.greedy.us_per_qeval", "us"},
	{"core.greedy.steps_per_qeval", "ratio"},
	{"core.greedy.allocs_per_call", "count"},
	{"core.greedy.share", "share"},
	{"core.solve.us_per_call", "us"},
	{"core.solve.calls_per_slot", "count"},
	{"core.solve.iters_p50", "iters"},
	{"core.solve.iters_p99", "iters"},
	{"core.solve.share", "share"},
	{"sim.realize.us_per_slot", "us"},
	{"sim.realize.share", "share"},
	{"sim.shard.share", "share"},
	{"packet.us_per_slot", "us"},
	{"packet.retx_frac", "ratio"},
	{"packet.share", "share"},
	{"sim.shard.run_ms_p50", "ms"},
	{"sim.shard.run_ms_max", "ms"},
	{"par.ideal_speedup", "x"},
	{"par.parallel_efficiency", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_share", "share"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs every declared metric with its measured value.
func newResult(defs []metricDef, values map[string]float64) *result {
	res := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return res
}

// tally counts attempted and failed runs and keeps the first failure.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Uint64("seed", 1, "workload seed: drives every stochastic process of the run")
	seconds := fs.Float64("seconds", 10, "measurement time, seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced replay")
	holdout := fs.Int64("holdout-seed", -1, "also run and check the workload once at this held-out seed (no timing)")
	record := fs.String("record", "", "record reference psnr_db for every workload at the comma-separated seeds into this file, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record != "" {
		return recordReferences(*record, fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	b := &bench{
		w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		refs: refs, workers: runtime.NumCPU(),
		extra: map[string]any{},
	}
	var res *result
	if *traceFlag == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		return err
	}
	if *holdout >= 0 {
		b.checkHoldout(uint64(*holdout))
	}
	res.Attempted, res.Failed = b.t.attempted, b.t.failed
	res.Correct = b.t.failed == 0
	if b.t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", b.t.firstErr)
	}

	out := bufio.NewWriter(stdout)
	ctx, err := json.Marshal(map[string]any{"context": b.context(*traceFlag)})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "%s\n%s\n", ctx, line); err != nil {
		return err
	}
	return out.Flush()
}

// context is the run record printed beside every result.
func (b *bench) context(trace int) map[string]any {
	commit, modified := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	c := map[string]any{
		"workload":    b.w.name,
		"size":        b.w.size(),
		"seed":        b.seed,
		"trace":       trace,
		"cpus":        runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workers":     b.workers,
		"go":          runtime.Version(),
		"cpu_model":   cpuModel(),
		"git_commit":  commit,
		"reference":   b.refState,
		"failed_frac": b.failedFrac(),
	}
	if modified != "" {
		c["git_modified"] = modified
	}
	for k, v := range b.extra {
		c[k] = v
	}
	return c
}

func (b *bench) failedFrac() float64 {
	if b.t.attempted == 0 {
		return 0
	}
	return float64(b.t.failed) / float64(b.t.attempted)
}

// cpuModel reads the processor name from /proc/cpuinfo, "unknown" elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
