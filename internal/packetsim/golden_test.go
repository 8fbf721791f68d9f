package packetsim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
	"femtocr/internal/video"
)

// goldenFile pins both delivery paths of the slot engine bit for bit: the
// rate accounting behind sim.Run and the packet queue/ARQ layer behind Run.
// It was recorded once and is never regenerated — a diff is a behaviour
// change of the engine, not a stale file.
const goldenFile = "testdata/engines.golden.json"

// goldenSchemes is every allocation scheme the engine runs.
var goldenSchemes = []sim.Scheme{sim.Proposed, sim.Heuristic1, sim.Heuristic2, sim.RoundRobin, sim.MaxThroughput}

// goldenCases runs every scheme on the single-FBS, a two-FBS
// non-interfering and the interfering topology, through sim.Run (tracking
// the eq. (23) bound on the interfering one) and through the packet path
// with and without rate adaptation, and flattens every numeric Result field
// to its IEEE-754 bits.
func goldenCases(t *testing.T) map[string]map[string]string {
	t.Helper()
	trio := video.PaperTrio()
	topologies := []struct {
		name        string
		spec        netmodel.TopologySpec
		interfering bool
	}{
		{"single", netmodel.PaperSingleSpec(), false},
		{"noninterfering2", netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:]}), false},
		{"interfering", netmodel.PaperInterferingSpec(), true},
	}
	const seed, gops = 7, 3
	out := make(map[string]map[string]string)
	for _, topo := range topologies {
		net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), topo.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range goldenSchemes {
			rate, err := sim.Run(net, sim.Options{Seed: seed, GOPs: gops, Scheme: sch, TrackBound: topo.interfering})
			if err != nil {
				t.Fatalf("%s/%v sim.Run: %v", topo.name, sch, err)
			}
			out[fmt.Sprintf("%s/%v/sim", topo.name, sch)] = flattenBits(rate)
			for _, adaptive := range []bool{false, true} {
				pk, err := Run(net, Options{Seed: seed, GOPs: gops, Scheme: sch, AdaptiveRate: adaptive})
				if err != nil {
					t.Fatalf("%s/%v packetsim.Run(adaptive=%v): %v", topo.name, sch, adaptive, err)
				}
				out[fmt.Sprintf("%s/%v/packet-adaptive=%v", topo.name, sch, adaptive)] = flattenBits(pk)
			}
		}
	}
	return out
}

// flattenBits maps every numeric leaf of a result (struct fields, slice
// elements, non-nil pointers) to a string: floats as their Float64bits in
// hex, integers in decimal.
func flattenBits(v any) map[string]string {
	out := make(map[string]string)
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Float64:
			out[path] = fmt.Sprintf("%016x", math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int64:
			out[path] = fmt.Sprint(v.Int())
		}
	}
	walk("", reflect.ValueOf(v))
	return out
}

// TestEnginesGolden compares both engines, every scheme and topology,
// against the recorded golden file bit for bit.
func TestEnginesGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenCases(t)
	if len(got) != len(want) {
		t.Errorf("%d cases, golden has %d", len(got), len(want))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from the golden file", name)
			continue
		}
		if !reflect.DeepEqual(got[name], w) {
			var fields []string
			for f := range w {
				if g, ok := got[name][f]; !ok || g != w[f] {
					fields = append(fields, f)
				}
			}
			for f := range got[name] {
				if _, ok := w[f]; !ok {
					fields = append(fields, f)
				}
			}
			sort.Strings(fields)
			t.Errorf("%s: fields %v differ from the golden bits (got %d fields, want %d)",
				name, fields, len(got[name]), len(w))
		}
	}
}
