package core

// Bit-identity gates for the inner-bisection probe-row cache (see
// solveWorkspace.probeRoots) and the walk certificates (see walkFBS).
// refEquilibrium is the per-FBS search as it was before either: every
// probe recomputes every member's branch value and share, and every memo
// miss walks. The tests run the cached search and the reference on their
// own workspaces over the same call sequences — several expected-channel
// vectors per epoch, as the greedy allocator's Q evaluations issue them —
// and require every (lambda_i, mask) pair and every final Allocation to
// match bit for bit. The walk-level tests feed walkFBS chosen MBS branch
// values (certificate bounds, NaN, infinities, signed zeros) and compare
// it with refWalk on the same workspace columns.

import (
	"math"
	"testing"

	"femtocr/internal/rng"
)

// refStats counts which branches of the reference search a test reached,
// so each test can assert it covered the case it names.
type refStats struct {
	calls, floorReturns, expansions, unmemoable int
}

// refEquilibrium returns the uncached per-FBS search, recording coverage
// in st.
func refEquilibrium(st *refStats) fbsEquilibrium {
	return func(ws *solveWorkspace, in *Instance, i int, l0 float64, iters int) (float64, uint64) {
		st.calls++
		members := ws.byFBS[i]
		gi := in.G[i-1]
		memoable := len(members) <= 64
		if !memoable {
			st.unmemoable++
		}
		if memoable {
			if li, mask, ok := ws.eqMemoGet(i, l0, gi); ok {
				return li, mask
			}
		}
		gV0 := make([]float64, len(members))
		for b, j := range members {
			gV0[b], _ = ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
		}
		li, mask := refWalk(ws, i, gV0, iters, st)
		if memoable {
			ws.eqMemoPut(i, l0, gi, li, mask)
		}
		return li, mask
	}
}

// refWalk is the uncached inner bisection of FBS i against the members'
// MBS branch values gV0. It reads ws's per-user columns and nothing else
// of the workspace.
func refWalk(ws *solveWorkspace, i int, gV0 []float64, iters int, st *refStats) (float64, uint64) {
	members := ws.byFBS[i]
	m := len(members)
	gU := make([]waterfillUser, m)
	gLogW := make([]float64, m)
	gWR := make([]float64, m)
	gBL := make([]float64, m)
	for b, j := range members {
		gU[b] = ws.u1[j]
		gLogW[b] = ws.logW[j]
		gWR[b] = ws.wr1[j]
		gBL[b] = ws.bl1[j]
	}
	demand := func(li float64) float64 {
		total := 0.0
		for b := range gU {
			bv, rho := gU[b].branchAndRhoWR(li, gLogW[b], gWR[b], gBL[b])
			if bv >= gV0[b] {
				total += rho
				if total > 1 {
					return total
				}
			}
		}
		return total
	}
	li := lambdaFloor
	if demand(li) > 1 {
		hi := 0.0
		for b := range gU {
			hi += gU[b].ps
		}
		if hi > li {
			for demand(hi) > 1 {
				st.expansions++
				hi *= 2
			}
			lo := li
			for it := 0; it < iters; it++ {
				mid := 0.5 * (lo + hi)
				if demand(mid) > 1 {
					lo = mid
				} else {
					hi = mid
				}
			}
			li = hi
		}
	}
	if li == lambdaFloor {
		st.floorReturns++
	}
	var mask uint64
	for b := range gU {
		bv, _ := gU[b].branchAndRhoWR(li, gLogW[b], gWR[b], gBL[b])
		if gV0[b] > bv {
			mask |= 1 << uint(b)
		}
	}
	return li, mask
}

// probePair runs the cached solver and the reference side by side, each
// on its own workspace, so the two memos and caches never interact.
type probePair struct {
	t      *testing.T
	e      EquilibriumSolver
	cached *solveWorkspace
	ref    *solveWorkspace
	st     refStats
	// certHits counts the per-l0 calls of solve that a walk certificate
	// answered.
	certHits int
}

func newProbePair(t *testing.T) *probePair {
	p := &probePair{t: t, cached: new(solveWorkspace), ref: new(solveWorkspace)}
	p.bump()
	return p
}

// bump starts a new epoch on both sides, as a new base instance requires.
func (p *probePair) bump() {
	p.cached.bumpEqEpoch()
	p.ref.bumpEqEpoch()
}

// solve compares one full solve of in, then every FBS's equilibrium at a
// spread of common prices, on the current epoch of both workspaces.
func (p *probePair) solve(in *Instance, l0s []float64) {
	p.t.Helper()
	got, want := NewAllocation(in.K()), NewAllocation(in.K())
	errC := p.e.solveSessionWS(in, got, p.cached, nil, (*solveWorkspace).equilibriumFBS)
	errR := p.e.solveSessionWS(in, want, p.ref, nil, refEquilibrium(&p.st))
	if (errC == nil) != (errR == nil) {
		p.t.Fatalf("cached err %v, reference err %v", errC, errR)
	}
	for j := range want.MBS {
		if got.MBS[j] != want.MBS[j] ||
			math.Float64bits(got.Rho0[j]) != math.Float64bits(want.Rho0[j]) ||
			math.Float64bits(got.Rho1[j]) != math.Float64bits(want.Rho1[j]) {
			p.t.Fatalf("user %d: cached (%v, %v, %v), reference (%v, %v, %v)", j,
				got.MBS[j], got.Rho0[j], got.Rho1[j], want.MBS[j], want.Rho0[j], want.Rho1[j])
		}
	}
	ref := refEquilibrium(&p.st)
	for i := 1; i <= in.N(); i++ {
		for _, l0 := range l0s {
			_, _, memoHit := p.cached.eqMemoGet(i, l0, in.G[i-1])
			before, had := findRoot(p.cached, i, in.G[i-1])
			li, mask := p.cached.equilibriumFBS(in, i, l0, 45)
			wantLi, wantMask := ref(p.ref, in, i, l0, 45)
			if math.Float64bits(li) != math.Float64bits(wantLi) || mask != wantMask {
				p.t.Fatalf("FBS %d at l0=%v G=%v: cached (%v, %#x), reference (%v, %#x)",
					i, l0, in.G[i-1], li, mask, wantLi, wantMask)
			}
			if after, _ := findRoot(p.cached, i, in.G[i-1]); !memoHit && certAnswered(had, before, after) {
				p.certHits++
			}
		}
	}
}

// greedyLike solves in at its own G, then at every single-FBS perturbation
// G + d*e_i, all in one epoch: the access pattern of the greedy
// allocator's Q evaluations, where every FBS but one keeps its G_i.
func (p *probePair) greedyLike(in *Instance, s *rng.Stream, deltas []float64) {
	p.t.Helper()
	base := append([]float64(nil), in.G...)
	// Neighbouring common prices, like the outer bisection's late probes,
	// give the walk certificates something to answer.
	x := 0.3 + s.Float64()
	l0s := []float64{lambdaFloor, 1e-3, 0.05, x, x * (1 + 1e-9), x * (1 - 1e-9), 5}
	p.solve(in, l0s)
	for i := range base {
		for _, d := range deltas {
			g := append([]float64(nil), base...)
			g[i] += d
			in.G = g
			p.solve(in, l0s)
		}
	}
	in.G = base
	checkTries(p.t, p.cached, in)
}

// checkTries verifies every probe trie of the workspace's current epoch
// against a recomputation: each node's price follows from its path (the
// floor probe, the bracket expansion from sum(ps), then bisection steps),
// and every filled row entry must be exactly what branchAndRhoWR returns
// for that member at that price. in supplies the epoch's base instance;
// each root's own G_i is substituted before recomputing.
func checkTries(t *testing.T, ws *solveWorkspace, in *Instance) {
	t.Helper()
	for _, r := range ws.probeRoots {
		if r.epoch != ws.eqEpoch {
			continue
		}
		fbs := int(r.fbs)
		g := append([]float64(nil), in.G...)
		g[fbs-1] = math.Float64frombits(r.g)
		tmp := new(solveWorkspace)
		tmp.prepareUsers(in.WithG(g))
		members := ws.byFBS[fbs]
		sumPS := 0.0
		for _, j := range members {
			sumPS += tmp.u1[j].ps
		}
		// visit checks node n at price li; phase 0 is the floor probe,
		// phase 1 a bracket expansion, phase 2 a bisection step over
		// [lo, hi).
		var visit func(n int32, li float64, phase int, lo, hi float64)
		visit = func(n int32, li float64, phase int, lo, hi float64) {
			nd := ws.probeNodes[n]
			for b := 0; b < int(nd.filled); b++ {
				j := members[b]
				bv, rho := tmp.u1[j].branchAndRhoWR(li, tmp.logW[j], tmp.wr1[j], tmp.bl1[j])
				e := ws.probeRows[int(nd.row)+b]
				if math.Float64bits(e.bv) != math.Float64bits(bv) || math.Float64bits(e.rho) != math.Float64bits(rho) {
					t.Fatalf("FBS %d G=%v price %v member %d: cached (%v, %v), recomputed (%v, %v)",
						fbs, g[fbs-1], li, b, e.bv, e.rho, bv, rho)
				}
			}
			var next [2]struct {
				li, lo, hi float64
				phase      int
			}
			switch phase {
			case 0:
				next[1].li, next[1].phase = sumPS, 1
				if nd.kids[0] != 0 {
					t.Fatalf("FBS %d: the floor probe has a demand <= 1 child", fbs)
				}
			case 1:
				next[1].li, next[1].phase = 2*li, 1
				next[0].li, next[0].phase, next[0].lo, next[0].hi = 0.5*(lambdaFloor+li), 2, lambdaFloor, li
			case 2:
				next[1].li, next[1].phase, next[1].lo, next[1].hi = 0.5*(li+hi), 2, li, hi
				next[0].li, next[0].phase, next[0].lo, next[0].hi = 0.5*(lo+li), 2, lo, li
			}
			for o, k := range nd.kids {
				if k != 0 {
					visit(k, next[o].li, next[o].phase, next[o].lo, next[o].hi)
				}
			}
		}
		visit(r.node, lambdaFloor, 0, 0, 0)
	}
}

// findRoot returns the probe root of (fbs, g) in ws's current epoch.
func findRoot(ws *solveWorkspace, fbs int, g float64) (probeRoot, bool) {
	for _, r := range ws.probeRoots {
		if r.epoch == ws.eqEpoch && int(r.fbs) == fbs && r.g == math.Float64bits(g) {
			return r, true
		}
	}
	return probeRoot{}, false
}

// certAnswered reports whether a walkFBS call that saw the root before and
// left it after was answered by a certificate: a walk on a root with a
// certificate always stores a new one, a hit changes nothing.
func certAnswered(had bool, before, after probeRoot) bool {
	return had && before.certs[0].ok && after == before
}

func TestProbeCacheBitIdenticalRandom(t *testing.T) {
	s := rng.New(14)
	p := newProbePair(t)
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(s, 1+s.IntN(12), 1+s.IntN(4))
		if trial%2 == 0 {
			// FBSs with equal G_i must still get tries of their own.
			for i := range in.G {
				in.G[i] = in.G[0]
			}
		}
		if trial%3 == 0 {
			// Encoding ceilings cap the shares, so some searches clear the
			// budget at the price floor.
			in.WMax = make([]float64, in.K())
			for j := range in.WMax {
				in.WMax[j] = in.W[j] + 0.5*s.Float64()
			}
		}
		p.bump()
		p.greedyLike(in, s, []float64{0.5 + s.Float64(), 1.7})
	}
	if p.st.floorReturns == 0 {
		t.Fatal("no search returned the price floor; the lambda-floor path is uncovered")
	}
	if p.certHits == 0 {
		t.Fatal("no walk certificate answered a call; the certificates are uncovered")
	}
}

// TestProbeCacheBitIdenticalUnmemoable covers FBSs with more than 64
// members, which bypass eqMemo (the mask has 64 bits) but still walk the
// probe cache.
func TestProbeCacheBitIdenticalUnmemoable(t *testing.T) {
	s := rng.New(15)
	in := randomInstance(s, 90, 2)
	for j := range in.FBS {
		in.FBS[j] = 1
	}
	in.FBS[0] = 2
	p := newProbePair(t)
	p.greedyLike(in, s, []float64{0.8})
	if p.st.unmemoable == 0 {
		t.Fatal("no FBS exceeded 64 members")
	}
}

// TestProbeCacheBitIdenticalBracketExpansion covers the hi *= 2 bracket
// expansion. With negligible W and no MBS path, every member's share at
// the price sum(ps) is ps/sum(ps), and for these success probabilities
// the float sum of those shares rounds to just above 1.
func TestProbeCacheBitIdenticalBracketExpansion(t *testing.T) {
	in := &Instance{
		W:   []float64{1e-300, 1e-300, 1e-300},
		R0:  []float64{0, 0, 0},
		R1:  []float64{1, 1, 1},
		PS0: []float64{0.5, 0.5, 0.5},
		PS1: []float64{0.48, 0.65, 0.61},
		FBS: []int{1, 1, 1},
		G:   []float64{1},
	}
	p := newProbePair(t)
	p.solve(in, []float64{lambdaFloor, 0.1, 1, 10})
	checkTries(t, p.cached, in)
	if p.st.expansions == 0 {
		t.Fatal("the bracket never expanded; the hi *= 2 path is uncovered")
	}
}

// TestProbeCacheBitIdenticalOverCap fills the row arena within one epoch
// and keeps solving: walks that cannot add nodes finish uncached on the
// scratch row, and a new (FBS, G_i) gets no trie at all.
func TestProbeCacheBitIdenticalOverCap(t *testing.T) {
	s := rng.New(16)
	in := randomInstance(s, 300, 2)
	p := newProbePair(t)
	for trial := 0; trial < 40 && len(p.cached.probeRows)+300 <= probeRowCap; trial++ {
		in.G[0] = 0.5 + 4*s.Float64()
		in.G[1] = 0.5 + 4*s.Float64()
		p.solve(in, []float64{1e-3, 0.05})
	}
	m := len(p.cached.byFBS[1])
	if len(p.cached.probeRows)+m <= probeRowCap {
		t.Fatalf("row arena holds %d of %d entries; the cap was never reached", len(p.cached.probeRows), probeRowCap)
	}
	if n := p.cached.probeRootOf(1, 17.5, m); n != -1 {
		t.Fatalf("a new trie root was created past the cap (node %d)", n)
	}
	in.G[0], in.G[1] = 2.25, 3.75
	p.solve(in, []float64{lambdaFloor, 1e-3, 0.05, 0.7})
	checkTries(t, p.cached, in)
	// Without a root those walks had nowhere to store a certificate.
	for i, g := range in.G {
		if r, ok := findRoot(p.cached, i+1, g); ok {
			t.Fatalf("FBS %d got a trie root past the cap: %+v", i+1, r)
		}
	}
}

// TestProbeCacheEpochWraparound forces eqEpoch through its uint32
// wraparound. The flush must clear the trie roots along with eqMemo: the
// second instance keeps the first one's FBS indices and G vector, so a
// surviving root would match its key and send the walk into rows of the
// old instance.
func TestProbeCacheEpochWraparound(t *testing.T) {
	s := rng.New(17)
	first := randomInstance(s, 9, 3)
	p := newProbePair(t)
	p.solve(first, []float64{1e-3, 0.05})
	if len(p.cached.probeNodes) == 0 {
		t.Fatal("the first instance built no probe nodes")
	}
	p.cached.eqEpoch = math.MaxUint32
	p.ref.eqEpoch = math.MaxUint32
	p.bump()
	if p.cached.eqEpoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", p.cached.eqEpoch)
	}
	for i, r := range p.cached.probeRoots {
		if r != (probeRoot{}) {
			t.Fatalf("probe root %d survived the wraparound flush: %+v", i, r)
		}
	}
	if len(p.cached.probeNodes) != 0 || len(p.cached.probeRows) != 0 {
		t.Fatalf("arenas hold %d nodes, %d rows after the bump", len(p.cached.probeNodes), len(p.cached.probeRows))
	}
	second := randomInstance(s, 9, 3)
	copy(second.FBS, first.FBS)
	copy(second.G, first.G)
	p.solve(second, []float64{1e-3, 0.05})
	checkTries(t, p.cached, second)
}

// walkPrep starts a fresh epoch on ws and loads in's per-user columns and
// member lists, as a solve does before its first walk.
func walkPrep(ws *solveWorkspace, in *Instance) {
	ws.bumpEqEpoch()
	ws.prepareUsers(in)
	ws.groupByFBS(in)
}

// mbsValues returns FBS i's members' MBS branch values at common price l0,
// the gV0 equilibriumFBS hands walkFBS.
func mbsValues(ws *solveWorkspace, i int, l0 float64) []float64 {
	gV0 := make([]float64, len(ws.byFBS[i]))
	for b, j := range ws.byFBS[i] {
		gV0[b], _ = ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
	}
	return gV0
}

// walkCheck runs walkFBS of FBS i against gV0 and fails unless it matches
// refWalk bit for bit. It reports whether a certificate answered.
func walkCheck(t *testing.T, ws *solveWorkspace, in *Instance, i int, gV0 []float64) bool {
	t.Helper()
	g := in.G[i-1]
	before, had := findRoot(ws, i, g)
	ws.gV0 = append(ws.gV0[:0], gV0...)
	li, mask := ws.walkFBS(i, g, 45)
	var st refStats
	wantLi, wantMask := refWalk(ws, i, gV0, 45, &st)
	if math.Float64bits(li) != math.Float64bits(wantLi) || mask != wantMask {
		t.Fatalf("FBS %d gV0=%v: cached (%v, %#x), reference (%v, %#x)", i, gV0, li, mask, wantLi, wantMask)
	}
	after, _ := findRoot(ws, i, g)
	return certAnswered(had, before, after)
}

// TestWalkCertBoundaries pins each end of every member's certificate
// interval (lo, hi]: gV0[b] = lo and the next float above hi walk again,
// gV0[b] = hi and the next float above lo are answered by the certificate,
// and every answer matches the reference walk. Trial 0 has 70 members, past
// the memo's 64-bit mask.
func TestWalkCertBoundaries(t *testing.T) {
	s := rng.New(21)
	ws := new(solveWorkspace)
	checked := 0
	for trial := 0; trial < 10; trial++ {
		k := 2 + s.IntN(10)
		if trial == 0 {
			k = 70
		}
		in := randomInstance(s, k, 1)
		walkPrep(ws, in)
		base := mbsValues(ws, 1, 0.05+s.Float64())
		walkCheck(t, ws, in, 1, base)
		r, _ := findRoot(ws, 1, in.G[0])
		if !r.certs[0].ok {
			t.Fatal("the first walk stored no certificate")
		}
		box := append([]probeBound(nil), ws.probeBounds[r.bounds:int(r.bounds)+k]...)
		for b, bd := range box {
			for _, q := range []struct {
				x   float64
				hit bool
			}{
				{bd.lo, false},
				{math.Nextafter(bd.lo, math.Inf(1)), true},
				{bd.hi, true},
				{math.Nextafter(bd.hi, math.Inf(1)), false},
			} {
				if math.IsInf(q.x, 0) {
					continue
				}
				x := append([]float64(nil), base...)
				x[b] = q.x
				walkPrep(ws, in)
				walkCheck(t, ws, in, 1, base)
				if hit := walkCheck(t, ws, in, 1, x); hit != q.hit {
					t.Fatalf("trial %d member %d: gV0 %v against (%v, %v]: certificate hit %v, want %v",
						trial, b, q.x, bd.lo, bd.hi, hit, q.hit)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no finite certificate bound was checked")
	}
}

// TestWalkCertSpecialValues walks MBS branch values of NaN, ±Inf, ±0 and
// ±MaxFloat64 at every member, in one epoch so that each walk meets the
// certificates the earlier ones left, including those of NaN walks. One
// member's zero-share branch value is NaN, so cached rows hold NaN, and
// one member has log(W) = 0, so its zero-share branch value is +0 and the
// signed zeros land exactly on a threshold.
func TestWalkCertSpecialValues(t *testing.T) {
	in := randomInstance(rng.New(22), 8, 1)
	in.W[2] = 1
	ws := new(solveWorkspace)
	walkPrep(ws, in)
	ws.bl1[5] = math.NaN()
	base := mbsValues(ws, 1, 0.2)
	specials := []float64{
		math.NaN(), math.MaxFloat64, math.Inf(1), -math.MaxFloat64, math.Inf(-1),
		0, math.Copysign(0, -1), math.NaN(), -math.MaxFloat64,
	}
	hits := 0
	for pass := 0; pass < 2; pass++ {
		for b := range base {
			for _, v := range specials {
				x := append([]float64(nil), base...)
				x[b] = v
				if walkCheck(t, ws, in, 1, x) {
					hits++
				}
				if walkCheck(t, ws, in, 1, base) {
					hits++
				}
			}
		}
		walkPrep(ws, in)
		ws.bl1[5] = math.NaN()
	}
	if hits == 0 {
		t.Fatal("no certificate answered a call")
	}
	// Every member's MBS value NaN at once, then finite again.
	nan := make([]float64, len(base))
	for b := range nan {
		nan[b] = math.NaN()
	}
	walkCheck(t, ws, in, 1, nan)
	walkCheck(t, ws, in, 1, base)

	// The NaN rows were really cached, and no bound is NaN.
	sawNaN := false
	for _, e := range ws.probeRows {
		sawNaN = sawNaN || math.IsNaN(e.bv)
	}
	if !sawNaN {
		t.Fatal("no cached branch value is NaN")
	}
	for i, bd := range ws.probeBounds {
		if math.IsNaN(bd.lo) || math.IsNaN(bd.hi) {
			t.Fatalf("certificate bound %d is NaN: %+v", i, bd)
		}
	}
}

// TestWalkCertBoundArenaCap fills the certificate bound arena within one
// epoch: roots created past its cap store no certificate and still match
// the reference. Tight encoding ceilings make every inner search clear at
// the price floor, so each root adds one row but two boxes, and the bound
// arena fills before the row arena.
func TestWalkCertBoundArenaCap(t *testing.T) {
	s := rng.New(23)
	in := randomInstance(s, 120, 2)
	in.WMax = make([]float64, in.K())
	for j := range in.WMax {
		in.WMax[j] = in.W[j] + 1e-3
	}
	p := newProbePair(t)
	l0s := []float64{1e-3, 0.05}
	p.solve(in, l0s)
	m := len(p.cached.byFBS[1])
	for trial := 0; trial < 200 && len(p.cached.probeBounds)+2*m <= probeBoundCap; trial++ {
		in.G[0] = 0.5 + 4*s.Float64()
		p.solve(in, l0s)
	}
	if len(p.cached.probeBounds)+2*m <= probeBoundCap {
		t.Fatalf("bound arena holds %d of %d entries; the cap was never reached", len(p.cached.probeBounds), probeBoundCap)
	}
	in.G[0] = 9.5
	p.solve(in, append(l0s, 0.3))
	r, ok := findRoot(p.cached, 1, in.G[0])
	if !ok {
		t.Fatal("no trie root for the new G_1")
	}
	if r.bounds != -1 || r.certs[0].ok || r.certs[1].ok {
		t.Fatalf("a root past the bound cap stored a certificate: %+v", r)
	}
	if len(p.cached.probeBounds) > probeBoundCap {
		t.Fatalf("bound arena holds %d entries, cap %d", len(p.cached.probeBounds), probeBoundCap)
	}
}

// TestWalkCertEpochBump solves two instances that differ only on the FBS
// side (R1, PS1) in consecutive epochs, once by a plain bump and once
// through the uint32 wraparound. Their MBS branch values, FBS indices and
// G match, so a certificate surviving the bump would be found under the
// same key, hold the same gV0 and answer with the first instance's price.
func TestWalkCertEpochBump(t *testing.T) {
	s := rng.New(24)
	first := randomInstance(s, 9, 1)
	second := randomInstance(s, 9, 1)
	copy(second.W, first.W)
	copy(second.R0, first.R0)
	copy(second.PS0, first.PS0)
	copy(second.G, first.G)
	l0s := []float64{lambdaFloor, 1e-3, 0.05, 0.4, 0.4 * (1 + 1e-9)}
	for _, wrap := range []bool{false, true} {
		p := newProbePair(t)
		p.solve(first, l0s)
		if r, _ := findRoot(p.cached, 1, first.G[0]); !r.certs[0].ok {
			t.Fatal("the first instance stored no certificate")
		}
		if wrap {
			p.cached.eqEpoch = math.MaxUint32
			p.ref.eqEpoch = math.MaxUint32
		}
		p.bump()
		if len(p.cached.probeBounds) != 0 {
			t.Fatalf("bound arena holds %d entries after the bump", len(p.cached.probeBounds))
		}
		p.solve(second, l0s)
	}
}
