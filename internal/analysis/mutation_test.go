package analysis

import (
	"os"
	"strings"
	"testing"
)

// The mutation smoke tests: seed one representative bug of each class into
// real (or realistic) code and prove the matching analyzer — and only it —
// catches it with exactly one finding. This is the sensitivity half of the
// calibration; the fixture _clean files and the empty baseline are the
// specificity half.

// mutate loads a real module source file, applies one textual replacement
// (which must change it), and returns the mutated source.
func mutate(t *testing.T, file, old, new string) string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	src := string(data)
	if !strings.Contains(src, old) {
		t.Fatalf("%s no longer contains %q; update the mutation test", file, old)
	}
	return strings.Replace(src, old, new, 1)
}

// assertSingleFinding runs the full suite and requires exactly one finding,
// from the expected analyzer, with the expected message fragment.
func assertSingleFinding(t *testing.T, diags []Diagnostic, analyzer, fragment string) {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(diags), diags)
	}
	if diags[0].Analyzer != analyzer {
		t.Fatalf("finding came from %s, want %s: %s", diags[0].Analyzer, analyzer, diags[0].Message)
	}
	if !strings.Contains(diags[0].Message, fragment) {
		t.Fatalf("finding %q does not mention %q", diags[0].Message, fragment)
	}
}

// TestMutationDroppedFromDB: deleting the fading.FromDB conversion on the
// EESM beta leaves a dB value flowing into a linear-annotated field;
// unitcheck alone must catch it.
func TestMutationDroppedFromDB(t *testing.T) {
	src := mutate(t, "../ofdm/ofdm.go",
		"beta:        fading.FromDB(betaDB),",
		"beta:        betaDB,")
	diags := suiteOnSource(t, "femtocr/internal/ofdmmut", "ofdmmut.go", src, All())
	assertSingleFinding(t, diags, "unitcheck", "dB value assigned to linear field")
}

// TestMutationOrphanStream: replacing the seeded root with new(rng.Stream)
// orphans the topology study's RNG; seedflow alone must catch it. The file
// type-checks standalone with shims for the two identifiers it borrows from
// sibling files of its package.
func TestMutationOrphanStream(t *testing.T) {
	src := mutate(t, "../experiments/topology.go",
		"root := rng.New(seed)",
		"root := new(rng.Stream)")
	src += "\nvar ErrBadParams error\n\nfunc runGrid(n, workers int, do func(i int) error) error { return nil }\n"
	diags := suiteOnSource(t, "femtocr/internal/topologymut", "topologymut.go", src, All())
	assertSingleFinding(t, diags, "seedflow", "orphan rng.Stream")
}

// TestMutationSwappedBound: looping a user-indexed structure to N (the FBS
// count) instead of K (the user count) reads the wrong axis; idxdomain
// alone must catch it.
func TestMutationSwappedBound(t *testing.T) {
	clean := `package fixture

import "femtocr/internal/core"

func sumPSNR(in *core.Instance) float64 {
	total := 0.0
	for j := 0; j < in.K(); j++ {
		total += in.W[j]
	}
	return total
}
`
	if diags := suiteOnSource(t, "femtocr/internal/coremut0", "coremut0.go", clean, All()); len(diags) != 0 {
		t.Fatalf("clean variant must be silent, got %v", diags)
	}
	mutated := strings.Replace(clean, "in.K()", "in.N()", 1)
	diags := suiteOnSource(t, "femtocr/internal/coremut1", "coremut1.go", mutated, All())
	assertSingleFinding(t, diags, "idxdomain", "index-domain mismatch")
}

// TestMutationHotAlloc: introducing an unguarded make into waterfillInto,
// an annotated //femtovet:hotpath root, breaks the allocation-free
// contract; hotpath alone must catch it.
func TestMutationHotAlloc(t *testing.T) {
	src := mutate(t, "../core/waterfill.go",
		"	for j := range rho {\n\t\trho[j] = 0\n\t}",
		"	scratch := make([]float64, len(rho))\n\tfor j := range rho {\n\t\trho[j] = scratch[j]\n\t}")
	diags := suiteOnSource(t, "femtocr/internal/coremutalloc", "waterfillmut.go", src, All())
	assertSingleFinding(t, diags, "hotpath", "make allocates on every call of waterfillInto")
}

// TestMutationDroppedDeferPut: deleting the deferred Put after a pool Get
// leaks the workspace on every call; poolsafe alone must catch it.
func TestMutationDroppedDeferPut(t *testing.T) {
	clean := `package fixture

import "sync"

type scratch struct{ buf []float64 }

var pool = sync.Pool{New: func() any { return new(scratch) }}

func use(n int) int {
	ws := pool.Get().(*scratch)
	defer pool.Put(ws)
	if cap(ws.buf) < n {
		ws.buf = make([]float64, n)
	}
	ws.buf = ws.buf[:n]
	return len(ws.buf)
}
`
	if diags := suiteOnSource(t, "femtocr/internal/poolmut0", "poolmut0.go", clean, All()); len(diags) != 0 {
		t.Fatalf("clean variant must be silent, got %v", diags)
	}
	mutated := strings.Replace(clean, "\tdefer pool.Put(ws)\n", "", 1)
	diags := suiteOnSource(t, "femtocr/internal/poolmut1", "poolmut1.go", mutated, All())
	assertSingleFinding(t, diags, "poolsafe", "never returned to its pool")
}

// TestMutationBorrowedEscape: stashing a borrowed buffer in package state
// lets it outlive the call; aliascheck alone must catch it.
func TestMutationBorrowedEscape(t *testing.T) {
	clean := `package fixture

var stash []float64

// ScaleInto doubles src into dst and keeps neither.
//
//femtovet:borrows dst, src
func ScaleInto(dst, src []float64) {
	for i := range src {
		dst[i] = 2 * src[i]
	}
}
`
	if diags := suiteOnSource(t, "femtocr/internal/aliasmut0", "aliasmut0.go", clean, All()); len(diags) != 0 {
		t.Fatalf("clean variant must be silent, got %v", diags)
	}
	mutated := strings.Replace(clean, "for i := range src {",
		"stash = dst\n\tfor i := range src {", 1)
	diags := suiteOnSource(t, "femtocr/internal/aliasmut1", "aliasmut1.go", mutated, All())
	assertSingleFinding(t, diags, "aliascheck", "stored into package-level state")
}

// mutatePar seeds one bug into par/par.go, the shared grid primitive; the
// file is self-contained and type-checks standalone.
func mutatePar(t *testing.T, old, new string) string {
	t.Helper()
	return mutate(t, "../par/par.go", old, new)
}

// mutateParallel seeds one bug into experiments/parallel.go and grafts on
// the minimal Params shim the file needs to type-check standalone (the
// real struct lives in a sibling file of the package).
func mutateParallel(t *testing.T, old, new string) string {
	t.Helper()
	src := mutate(t, "../experiments/parallel.go", old, new)
	return src + "\ntype Params struct {\n\tWorkers  int\n\tParallel par.Parallelism\n}\n"
}

// TestMutationDroppedSharedReason: deleting the //femtovet:shared
// justification on RunGrid's error slots re-arms the slot-ownership check —
// the worker's errs[i] write is keyed by the dispatch counter, not a task
// parameter, so without the directive gridslot alone must catch it.
func TestMutationDroppedSharedReason(t *testing.T) {
	src := mutatePar(t,
		"\t//femtovet:shared -- the atomic dispatch counter hands each index to exactly one worker, so errs[i] has a single writer\n",
		"")
	diags := suiteOnSource(t, "femtocr/internal/gridmut", "gridmut.go", src, All())
	assertSingleFinding(t, diags, "gridslot", "writes captured errs")
}

// TestMutationDescendingMerge: reversing mergeSummary's fold loop breaks
// the ascending-index contract that makes the parallel Welford merge
// bitwise-deterministic; foldorder alone must catch it.
func TestMutationDescendingMerge(t *testing.T) {
	src := mutateParallel(t,
		"\tfor _, x := range xs {\n",
		"\tfor i := len(xs) - 1; i >= 0; i-- {\n\t\tx := xs[i]\n")
	diags := suiteOnSource(t, "femtocr/internal/foldmut", "foldmut.go", src, All())
	assertSingleFinding(t, diags, "foldorder", "ascending index order")
}

// TestMutationAddInsideWorker: moving the WaitGroup.Add into the spawned
// worker lets Wait return before late workers are counted; syncguard alone
// must catch it.
func TestMutationAddInsideWorker(t *testing.T) {
	src := mutatePar(t,
		"\t\twg.Add(1)\n\t\tgo func() {\n",
		"\t\tgo func() {\n\t\t\twg.Add(1)\n")
	diags := suiteOnSource(t, "femtocr/internal/syncmut", "syncmut.go", src, All())
	assertSingleFinding(t, diags, "syncguard", "Add inside the spawned goroutine")
}

// The unmutated originals stay silent — the suite is already proven clean
// over the whole module by TestSuiteCleanOnModule — so each mutation above
// flips exactly one bit of analyzer output.
