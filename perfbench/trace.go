package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer names one module boundary the traced replay times. The spans are
// recorded from the benchmark's own code, around each call into a layer's
// public functions; the simulator itself carries no instrumentation.
type layer uint8

const (
	layerRun        layer = iota // one whole replay (its self time is the unattributed glue)
	layerNewNetwork              // netmodel.NewNetwork
	layerPartition               // netmodel.Network.Partition and Network.Subnetwork
	layerShard                   // one shard's engine (construction, instance glue, fold)
	layerFrontend                // sim.Frontend.Step
	layerGreedy                  // core.GreedyAllocator.Allocate
	layerSolve                   // core.EquilibriumSolver.SolveInto / Solve
	layerRealize                 // fading.Link.Lost draws plus video.Progress accounting
	layerPacket                  // packet.TransmitSlot, packet.Queue and packet.Receiver
	numLayers
)

var layerNames = [numLayers]string{
	layerRun:        "run",
	layerNewNetwork: "netmodel.new_network",
	layerPartition:  "netmodel.partition",
	layerShard:      "sim.shard",
	layerFrontend:   "sim.frontend.step",
	layerGreedy:     "core.greedy.allocate",
	layerSolve:      "core.solve",
	layerRealize:    "sim.realize",
	layerPacket:     "packet",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer. Parent is the index of the enclosing
// span in the same tracer, -1 for a root; Run identifies the replay the span
// belongs to. Start and End are nanoseconds since the tracer's epoch.
type span struct {
	Name   layer
	Parent int32
	Run    int32
	Start  int64
	End    int64
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
	run   int32
}

// wallNow reads the wall clock. Only the benchmark's timing reads it; no
// simulated quantity does.
func wallNow() time.Time {
	return time.Now() //femtovet:ignore randsource -- benchmark timing, not simulation state
}

func newTracer() *tracer {
	return &tracer{epoch: wallNow(), open: -1, spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(l layer) int32 {
	t.spans = append(t.spans, span{Name: l, Parent: t.open, Run: t.run, Start: t.now()})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	t.spans[i].End = t.now()
	t.open = t.spans[i].Parent
}

// reset drops the recorded spans and starts a new run id.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.open = -1
	t.run++
}

// layerTotals is the per-layer self time and call count of a set of spans.
type layerTotals struct {
	selfNS [numLayers]int64
	calls  [numLayers]int64
	wallNS int64 // summed duration of the root spans
}

// add folds the tracer's current spans into the totals. A span's self time
// is its duration minus its direct children's durations; spans nest
// strictly, so the children never overlap and the self times of all spans
// under a root sum to the root's duration.
func (lt *layerTotals) add(spans []span) {
	child := make([]int64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].End - spans[i].Start
		}
	}
	for i := range spans {
		s := &spans[i]
		d := s.End - s.Start
		lt.selfNS[s.Name] += d - child[i]
		lt.calls[s.Name]++
		if s.Parent < 0 {
			lt.wallNS += d
		}
	}
}

// writeSpans dumps spans as JSON lines under dir, one object per span.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Run    int32  `json:"run"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.Name.String(), s.Parent, s.Run, s.Start, s.End}
		if err := enc.Encode(&rec); err != nil {
			_ = f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
