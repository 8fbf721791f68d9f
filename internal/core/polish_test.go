package core

import (
	"math"
	"testing"

	"femtocr/internal/rng"
)

// refPolish is the association polish without rejection certificates: every
// flip re-water-fills the two resources it perturbs and re-sums the
// objective. polishAssociation must reproduce its output bit for bit. When
// audit is non-nil, each flip is also shown, before it is evaluated, to a
// certificate built from scratch for the current state (audit.before), and
// its outcome is recorded (audit.after).
func refPolish(in *Instance, alloc *Allocation, maxRounds int, ws *solveWorkspace, audit *polishAudit) {
	k := in.K()
	cur := objectiveCached(in, alloc, ws.logW)
	save0 := growF(ws.polishRho0, k)
	ws.polishRho0 = save0
	save1 := growF(ws.polishRho1, k)
	ws.polishRho1 = save1
	for round := 0; round < maxRounds; round++ {
		improved := false
		for j := 0; j < k; j++ {
			certified := audit.before(in, alloc, j)
			// Flipping user j only perturbs the common channel and its own
			// FBS band; every other resource's water-filling is unchanged.
			copy(save0, alloc.Rho0)
			copy(save1, alloc.Rho1)
			alloc.MBS[j] = !alloc.MBS[j]
			fillCommon(in, alloc, ws)
			fillFBS(in, alloc, in.FBS[j], ws)
			if v := objectiveCached(in, alloc, ws.logW); v > cur+1e-12 {
				cur = v
				improved = true
				audit.after(certified, true)
			} else {
				alloc.MBS[j] = !alloc.MBS[j]
				copy(alloc.Rho0, save0)
				copy(alloc.Rho1, save1)
				audit.after(certified, false)
			}
		}
		if !improved {
			return
		}
	}
}

// polishAudit counts what refPolish's flips would have met in
// polishAssociation: flips is every flip evaluated, accepted those kept,
// certified those a certificate would skip, and unsound those certified yet
// accepted, which must never happen. stale counts states whose shares were
// not the fills' output for their association (the invariant the
// certificate and the restore-by-copy both rest on).
type polishAudit struct {
	flips, accepted, certified, unsound, stale int

	ws    solveWorkspace
	alloc Allocation
}

func (a *polishAudit) before(in *Instance, alloc *Allocation, j int) bool {
	if a == nil {
		return false
	}
	a.ws.prepareUsers(in)
	a.alloc.resize(in.K())
	copy(a.alloc.MBS, alloc.MBS)
	fillResources(in, &a.alloc, &a.ws)
	if !sameAllocationBits(&a.alloc, alloc) {
		a.stale++
	}
	return certRejects(in, &a.alloc, &a.ws, j, certInit(in, &a.alloc, &a.ws))
}

func (a *polishAudit) after(certified, accepted bool) {
	if a == nil {
		return
	}
	a.flips++
	if accepted {
		a.accepted++
	}
	if certified {
		a.certified++
		if accepted {
			a.unsound++
		}
	}
}

func sameAllocationBits(a, b *Allocation) bool {
	if len(a.MBS) != len(b.MBS) {
		return false
	}
	for j := range a.MBS {
		if a.MBS[j] != b.MBS[j] ||
			math.Float64bits(a.Rho0[j]) != math.Float64bits(b.Rho0[j]) ||
			math.Float64bits(a.Rho1[j]) != math.Float64bits(b.Rho1[j]) {
			return false
		}
	}
	return true
}

// polishInstance draws an instance for the certificate's corpus: up to 24
// users on up to 4 FBSs, W and R each scaled over 1e-3..1e3, zero-gain
// bands, users with PS0 = 0 or R1 = 0, and, on half the instances, WMax
// ceilings that some users already meet (W >= WMax). On a fifth of the
// instances W lies near 1e±250..1e±300 instead: with |log W| near 700 the
// objective sums' rounding reaches the 1e-12 acceptance threshold, so null
// flips are accepted on rounding noise and only the certificate's
// float-error margin keeps it from skipping them.
func polishInstance(s *rng.Stream) *Instance {
	k, n := 1+s.IntN(24), 1+s.IntN(4)
	in := randomInstance(s, k, n)
	wScale := math.Pow(10, 6*s.Float64()-3)
	if s.Bernoulli(0.2) {
		wScale = math.Pow(10, 250+50*s.Float64())
		if s.Bernoulli(0.5) {
			wScale = 1 / wScale
		}
	}
	rScale := math.Pow(10, 6*s.Float64()-3)
	if s.Bernoulli(0.5) {
		in.WMax = make([]float64, k)
	}
	for j := 0; j < k; j++ {
		in.W[j] *= wScale / 30
		in.R0[j] *= rScale
		in.R1[j] *= rScale
		if s.Bernoulli(0.1) {
			in.PS0[j] = 0
		}
		if s.Bernoulli(0.1) {
			in.R1[j] = 0
		}
		if in.WMax != nil {
			in.WMax[j] = in.W[j] * (0.5 + 1.5*s.Float64())
		}
	}
	for i := range in.G {
		if s.Bernoulli(0.2) {
			in.G[i] = 0
		}
	}
	return in
}

// checkPolishDifferential runs polishAssociation and refPolish from the same
// states and requires bit-identical allocations: from a random association,
// and through EquilibriumSolver and DualSolver, whose outputs must equal
// refPolish applied to their pre-polish associations.
func checkPolishDifferential(t *testing.T, in *Instance, s *rng.Stream, audit *polishAudit) {
	t.Helper()
	k := in.K()
	ws := new(solveWorkspace)
	ws.prepareUsers(in)

	// A random association: far from a local optimum, so many flips win.
	start := NewAllocation(k)
	for j := range start.MBS {
		start.MBS[j] = s.Bernoulli(0.5)
	}
	fillResources(in, start, ws)
	got := cloneAllocation(start)
	polishAssociation(in, got, 4, ws)
	want := cloneAllocation(start)
	refPolish(in, want, 4, ws, audit)
	requireSameAllocation(t, "random start", got, want)

	// Through EquilibriumSolver: the solver's last call of the per-FBS
	// search for each FBS fixes the pre-polish association.
	masks := make([]uint64, in.N()+1)
	capture := func(ws *solveWorkspace, in *Instance, i int, l0 float64, iters int) (float64, uint64) {
		li, mask := ws.equilibriumFBS(in, i, l0, iters)
		masks[i] = mask
		return li, mask
	}
	wsE := new(solveWorkspace)
	wsE.bumpEqEpoch()
	got = NewAllocation(k)
	if err := (&EquilibriumSolver{}).solveSessionWS(in, got, wsE, nil, capture); err != nil {
		t.Fatal(err)
	}
	want = NewAllocation(k)
	for i, members := range ws.groupByFBS(in) {
		for b, j := range members {
			want.MBS[j] = i > 0 && masks[i]&(1<<uint(b)) != 0
		}
	}
	fillResources(in, want, ws)
	refPolish(in, want, 4, ws, audit)
	requireSameAllocation(t, "EquilibriumSolver", got, want)

	// Through DualSolver, truncated at a random depth so that its
	// association often needs repair: the pre-polish association is the one
	// repair fixes at the final prices.
	d := NewDualSolver(WithMaxIter(1 + s.IntN(60)))
	got, rep, err := d.SolveDetailed(in)
	if err != nil {
		t.Fatal(err)
	}
	want = dualPrePolish(in, d, rep.Lambda, ws)
	refPolish(in, want, 4, ws, audit)
	requireSameAllocation(t, "DualSolver", got, want)
}

// dualPrePolish is the allocation DualSolver.repair hands to the polish:
// the association fixed at the final prices, water-filled. ws must be
// prepared for in.
func dualPrePolish(in *Instance, d *DualSolver, lambda []float64, ws *solveWorkspace) *Allocation {
	a := NewAllocation(in.K())
	for j := range a.MBS {
		l0 := math.Max(lambda[0], d.lambdaMin)
		l1 := math.Max(lambda[in.FBS[j]], d.lambdaMin)
		a.MBS[j] = ws.u0[j].branchValueLog(l0, ws.logW[j]) > ws.u1[j].branchValueLog(l1, ws.logW[j])
	}
	fillResources(in, a, ws)
	return a
}

// dualPolishFlips returns the number of users whose association d's polish
// changed on in: nonzero only if the polish accepted a flip.
func dualPolishFlips(t *testing.T, d *DualSolver, in *Instance) int {
	t.Helper()
	out, rep, err := d.SolveDetailed(in)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(solveWorkspace)
	ws.prepareUsers(in)
	pre := dualPrePolish(in, d, rep.Lambda, ws)
	flips := 0
	for j := range pre.MBS {
		if pre.MBS[j] != out.MBS[j] {
			flips++
		}
	}
	return flips
}

func cloneAllocation(a *Allocation) *Allocation {
	c := NewAllocation(len(a.MBS))
	copy(c.MBS, a.MBS)
	copy(c.Rho0, a.Rho0)
	copy(c.Rho1, a.Rho1)
	return c
}

func requireSameAllocation(t *testing.T, what string, got, want *Allocation) {
	t.Helper()
	if !sameAllocationBits(got, want) {
		t.Fatalf("%s: polished allocation differs from the reference polish:\n got  %v\n want %v", what, got, want)
	}
}

// polishCorpusSize is the number of random instances
// TestPolishCertificateMatchesReference runs, fewer under the race detector.
func polishCorpusSize() int {
	if raceEnabled || testing.Short() {
		return 1000
	}
	return 10000
}

// TestPolishCertificateMatchesReference is the certificate's differential
// test: over a random corpus, polishAssociation must reproduce refPolish bit
// for bit from random associations and through both solvers. The corpus
// must exercise both outcomes: some flips accepted (so a certificate that
// skipped improving flips would show) and many certified, and no flip a
// certificate skips may be one the exact evaluation accepts.
func TestPolishCertificateMatchesReference(t *testing.T) {
	root := rng.New(16)
	var audit polishAudit
	for c := 0; c < polishCorpusSize(); c++ {
		s := root.SplitIndex("instance", c)
		in := polishInstance(s)
		checkPolishDifferential(t, in, s, &audit)
		if t.Failed() {
			t.Fatalf("instance %d: %+v", c, in)
		}
	}
	t.Logf("flips %d, accepted %d, certified %d, unsound %d, stale %d",
		audit.flips, audit.accepted, audit.certified, audit.unsound, audit.stale)
	if audit.unsound != 0 {
		t.Errorf("%d certified flips were accepted by the exact evaluation", audit.unsound)
	}
	if audit.stale != 0 {
		t.Errorf("%d polish states held shares other than the fills' output", audit.stale)
	}
	if audit.accepted == 0 {
		t.Error("the corpus accepted no flip; it cannot catch a certificate that skips improving flips")
	}
	if audit.certified < audit.flips/2 {
		t.Errorf("certificates fired on %d of %d flips; expected most", audit.certified, audit.flips)
	}
}

// FuzzPolishAssociation runs the differential oracle of
// TestPolishCertificateMatchesReference on fuzzed corpus seeds.
func FuzzPolishAssociation(f *testing.F) {
	for _, seed := range []uint64{0, 1, 16, 1003} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := rng.New(seed)
		var audit polishAudit
		checkPolishDifferential(t, polishInstance(s), s, &audit)
		if audit.unsound != 0 || audit.stale != 0 {
			t.Fatalf("seed %d: %+v", seed, audit)
		}
	})
}
