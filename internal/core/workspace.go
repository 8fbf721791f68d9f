package core

import (
	"fmt"
	"math"
	"sync"
)

// solveWorkspace holds every scratch buffer one per-slot solve needs, so the
// steady-state hot path — one solve per slot per engine, thousands of slots
// per run — reuses the same memory instead of rebuilding ~15 slices each
// call. Workspaces are pooled rather than stored on the solver structs:
// solver values stay stateless (and therefore safe to share across engines
// and goroutines), while a Get/Put pair per solve costs nanoseconds and is
// race-free by construction.
//
// Ownership rule: a workspace is held for the duration of exactly one
// Solve/SolveInto/Allocate call and released before returning. Nothing that
// escapes to the caller (the returned Allocation, reports, traces) may alias
// workspace memory.
type solveWorkspace struct {
	// Per-user water-filling views and the cached log(W_j) terms shared by
	// every branch-value and objective evaluation of the solve. wr0/wr1
	// hoist the w/r quotient of each view (zero where r <= 0, which rhoAtWR
	// never reads) so the bisection probes skip one division per call.
	u0, u1   []waterfillUser
	logW     []float64
	wr0, wr1 []float64
	bl0, bl1 []float64 // zero-share branch values ps*logW + (1-ps)*logW

	// Gathered member columns for one FBS's inner bisection (see
	// equilibriumFBS): the ~2*iters demand probes of a bisection walk
	// these contiguous copies instead of chasing member indices through
	// the per-user columns above. gV0 holds each member's MBS branch
	// value at the current common price.
	gU                   []waterfillUser
	gLogW, gWR, gBL, gV0 []float64

	// User index lists grouped by serving FBS (index 0 unused).
	byFBS [][]int

	// Dual-subgradient state, sized nRes = N+1.
	scale, sumPS, sumWR []float64
	lambda, next, sums  []float64

	// Water-filling scratch shared by fillCommon/fillFBS (never nested):
	// the gathered user indices plus the flat effective-user columns
	// waterfillColumns bisects over.
	wfIdx             []int
	wfRho             []float64
	wfPS, wfWR, wfCap []float64

	// Greedy channel-allocation scratch (see greedy.go). qAlloc doubles as
	// the brute-force solver's enumeration allocation. gainRound tags each
	// cached candidate gain in gains with the allocation round it was
	// computed in, so take() can reuse same-round gains exactly.
	alive     []bool
	gains     []float64
	gainRound []int
	trial     []float64
	heap      []lazyEntry
	qAlloc    Allocation
	qInstance Instance

	// Per-FBS equilibrium memo (see exact.go solveIntoWS): open-addressed
	// cache of (fbs, lambda_0, G_i) -> (lambda_i, association mask),
	// epoch-tagged so invalidation on a new base instance is O(1). The
	// greedy allocator holds one epoch across all Q evaluations of an
	// Allocate call; the pooled solver entry points bump the epoch per
	// solve so a recycled workspace can never leak another instance's
	// equilibria.
	eqMemo  []eqMemoEntry
	eqEpoch uint32

	// polishRho0/polishRho1 snapshot an allocation's shares so a rejected
	// association flip restores them instead of re-water-filling.
	polishRho0, polishRho1 []float64
}

// eqMemoEntry is one cached inner-bisection result, keyed by the raw float
// bits of the common price and the FBS's expected-channel count.
type eqMemoEntry struct {
	l0, g uint64  // math.Float64bits of lambda_0 and G_i
	li    float64 // equilibrium band price
	mask  uint64  // bit b set = byFBS member b prefers the MBS at li
	fbs   int32
	epoch uint32
}

const (
	eqMemoSize  = 2048 // power of two
	eqMemoProbe = 8
)

// eqMemoHash mixes the key triple splitmix-style into a table index.
func eqMemoHash(fbs int32, l0, g uint64) uint64 {
	h := l0 ^ g*0x9E3779B97F4A7C15 ^ uint64(uint32(fbs))<<32
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// bumpEqEpoch starts a fresh memo epoch, invalidating every cached
// equilibrium in O(1). Callers must bump whenever the base instance behind
// the memoized solves changes (the greedy allocator once per Allocate, the
// pooled solver wrappers once per solve).
func (ws *solveWorkspace) bumpEqEpoch() {
	ws.eqEpoch++
	if ws.eqEpoch == 0 { // uint32 wraparound: flush so old tags cannot match
		for i := range ws.eqMemo {
			ws.eqMemo[i] = eqMemoEntry{}
		}
		ws.eqEpoch = 1
	}
}

// eqMemoGet looks up the memoized equilibrium of FBS fbs at common price
// l0f with expected channels gf.
func (ws *solveWorkspace) eqMemoGet(fbs int, l0f, gf float64) (float64, uint64, bool) {
	if len(ws.eqMemo) == 0 || ws.eqEpoch == 0 {
		return 0, 0, false
	}
	l0 := math.Float64bits(l0f)
	g := math.Float64bits(gf)
	h := eqMemoHash(int32(fbs), l0, g)
	for p := uint64(0); p < eqMemoProbe; p++ {
		e := &ws.eqMemo[(h+p)&(eqMemoSize-1)]
		if e.epoch == ws.eqEpoch && e.fbs == int32(fbs) && e.l0 == l0 && e.g == g {
			return e.li, e.mask, true
		}
	}
	return 0, 0, false
}

// eqMemoPut records an equilibrium under the current epoch, preferring
// stale slots along the probe window and overwriting the home slot when
// the window is full of live entries (it is a cache, not a map).
func (ws *solveWorkspace) eqMemoPut(fbs int, l0f, gf float64, li float64, mask uint64) {
	if ws.eqEpoch == 0 {
		return
	}
	if cap(ws.eqMemo) < eqMemoSize {
		ws.eqMemo = make([]eqMemoEntry, eqMemoSize)
	}
	ws.eqMemo = ws.eqMemo[:eqMemoSize]
	l0 := math.Float64bits(l0f)
	g := math.Float64bits(gf)
	h := eqMemoHash(int32(fbs), l0, g)
	slot := &ws.eqMemo[h&(eqMemoSize-1)]
	for p := uint64(0); p < eqMemoProbe; p++ {
		e := &ws.eqMemo[(h+p)&(eqMemoSize-1)]
		if e.epoch != ws.eqEpoch {
			slot = e
			break
		}
		if e.fbs == int32(fbs) && e.l0 == l0 && e.g == g {
			return // already cached this epoch
		}
	}
	*slot = eqMemoEntry{l0: l0, g: g, li: li, mask: mask, fbs: int32(fbs), epoch: ws.eqEpoch}
}

// workspacePool shares workspaces across all solver instances. sync.Pool
// keeps one workspace per P in steady state; a GC may drop pooled entries,
// after which the next solve regrows them once.
var workspacePool = sync.Pool{New: func() any { return new(solveWorkspace) }}

func getWorkspace() *solveWorkspace   { return workspacePool.Get().(*solveWorkspace) }
func putWorkspace(ws *solveWorkspace) { workspacePool.Put(ws) }

// growF returns a float64 slice of length n, reusing buf's backing array
// when it is large enough. Contents are unspecified.
func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// growU is growF for waterfillUser slices.
func growU(buf []waterfillUser, n int) []waterfillUser {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]waterfillUser, n)
}

// growI is growF for int slices.
func growI(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// growB is growF for bool slices.
func growB(buf []bool, n int) []bool {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]bool, n)
}

// prepareUsers fills the per-user views u0/u1 and the cached log(W) terms
// for one solve. The cached values are bit-identical to what the previous
// per-call math.Log computations produced: same function, same inputs.
func (ws *solveWorkspace) prepareUsers(in *Instance) {
	k := in.K()
	ws.u0 = growU(ws.u0, k)
	ws.u1 = growU(ws.u1, k)
	ws.logW = growF(ws.logW, k)
	ws.wr0 = growF(ws.wr0, k)
	ws.wr1 = growF(ws.wr1, k)
	ws.bl0 = growF(ws.bl0, k)
	ws.bl1 = growF(ws.bl1, k)
	for j := 0; j < k; j++ {
		ws.u0[j] = in.user0(j)
		ws.u1[j] = in.user1(j)
		lw := math.Log(in.W[j])
		ws.logW[j] = lw
		ws.wr0[j], ws.wr1[j] = 0, 0
		if r := ws.u0[j].r; r > 0 {
			ws.wr0[j] = in.W[j] / r
		}
		if r := ws.u1[j].r; r > 0 {
			ws.wr1[j] = in.W[j] / r
		}
		ws.bl0[j] = ws.u0[j].ps*lw + (1-ws.u0[j].ps)*lw
		ws.bl1[j] = ws.u1[j].ps*lw + (1-ws.u1[j].ps)*lw
	}
}

// groupByFBS rebuilds the per-FBS member lists, reusing the backing arrays.
func (ws *solveWorkspace) groupByFBS(in *Instance) [][]int {
	n := in.N()
	if cap(ws.byFBS) < n+1 {
		ws.byFBS = make([][]int, n+1)
	} else {
		ws.byFBS = ws.byFBS[:n+1]
	}
	for i := range ws.byFBS {
		ws.byFBS[i] = ws.byFBS[i][:0]
	}
	for j, f := range in.FBS {
		ws.byFBS[f] = append(ws.byFBS[f], j)
	}
	return ws.byFBS
}

// resize makes the allocation hold k users, reusing backing arrays and
// zeroing every entry.
func (a *Allocation) resize(k int) {
	a.MBS = growB(a.MBS, k)
	a.Rho0 = growF(a.Rho0, k)
	a.Rho1 = growF(a.Rho1, k)
	for j := 0; j < k; j++ {
		a.MBS[j] = false
		a.Rho0[j] = 0
		a.Rho1[j] = 0
	}
}

// objectiveCached is Allocation.Objective with the per-user log(W) terms
// precomputed. It is bit-identical to Objective: a zero gain reuses the
// cached log(W) exactly as math.Log(W+0) would, and a nonzero gain performs
// the same math.Log call on the same argument.
func objectiveCached(in *Instance, a *Allocation, logW []float64) float64 {
	total := 0.0
	for j := 0; j < in.K(); j++ {
		lw := logW[j]
		var ps, gain float64
		if a.MBS[j] {
			ps = in.PS0[j]
			gain = in.clampGain(j, a.Rho0[j]*in.R0[j])
		} else {
			ps = in.PS1[j]
			gain = in.clampGain(j, a.Rho1[j]*in.effR1(j))
		}
		lwg := lw
		if gain != 0 {
			lwg = math.Log(in.W[j] + gain)
		}
		total += ps*lwg + (1-ps)*lw
	}
	return total
}

// feasibleCached is Allocation.Feasible on workspace scratch: identical
// checks without the per-call slice allocation.
func feasibleCached(in *Instance, a *Allocation, ws *solveWorkspace, tol float64) error {
	k := in.K()
	if len(a.MBS) != k || len(a.Rho0) != k || len(a.Rho1) != k {
		return fmt.Errorf("%w: allocation sized for %d users, instance has %d", ErrBadInstance, len(a.MBS), k)
	}
	sum0 := 0.0
	ws.sums = growF(ws.sums, in.N())
	sumI := ws.sums
	for i := range sumI {
		sumI[i] = 0
	}
	for j := 0; j < k; j++ {
		if a.Rho0[j] < -tol || a.Rho1[j] < -tol {
			return fmt.Errorf("%w: negative share for user %d", ErrBadInstance, j)
		}
		if a.MBS[j] && a.Rho1[j] > tol {
			return fmt.Errorf("%w: user %d on MBS holds FBS share %v", ErrBadInstance, j, a.Rho1[j])
		}
		if !a.MBS[j] && a.Rho0[j] > tol {
			return fmt.Errorf("%w: user %d on FBS holds MBS share %v", ErrBadInstance, j, a.Rho0[j])
		}
		sum0 += a.Rho0[j]
		sumI[in.FBS[j]-1] += a.Rho1[j]
	}
	if sum0 > 1+tol {
		return fmt.Errorf("%w: common-channel shares sum to %v", ErrBadInstance, sum0)
	}
	for i, s := range sumI {
		if s > 1+tol {
			return fmt.Errorf("%w: FBS %d shares sum to %v", ErrBadInstance, i+1, s)
		}
	}
	return nil
}
