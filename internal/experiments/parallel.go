package experiments

import (
	"femtocr/internal/par"
	"femtocr/internal/stats"
)

// workers resolves the effective worker count for this experiment.
func (p Params) workers() int { return p.Parallel.EffectiveWorkers() }

// runGrid executes n independent tasks over a pool of workers; see
// par.RunGrid for the determinism contract (per-task slots, post-join
// index-order aggregation, lowest-index error, panic recovery).
func runGrid(n, workers int, do func(i int) error) error {
	return par.RunGrid(n, workers, do)
}

// RunGrid exposes the deterministic worker pool to callers outside the
// package (the CLI replication loops). See par.RunGrid for the contract:
// do(i) must write only into task i's own preallocated slot, and all
// aggregation must happen after RunGrid returns, in index order.
func RunGrid(n, workers int, do func(i int) error) error {
	return par.RunGrid(n, workers, do)
}

// mergeSummary folds per-task observations into a Summary by merging
// single-observation accumulators in task-index order. Because the fold
// order is fixed by the slot layout — never by goroutine scheduling — the
// result is bitwise-deterministic for any worker count.
func mergeSummary(xs []float64) (stats.Summary, error) {
	var acc stats.Running
	for _, x := range xs {
		var one stats.Running
		one.Add(x)
		acc.Merge(&one)
	}
	return acc.Summary()
}
