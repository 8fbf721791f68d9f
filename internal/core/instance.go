// Package core implements the paper's contribution: the per-slot resource
// allocation problems (12), (17) and (21), the optimum-achieving distributed
// dual-decomposition algorithm of Tables I and II, the greedy
// channel-allocation algorithm of Table III with its Theorem 2 lower bound
// and eq. (23) upper bound, and the two heuristic baselines of §V.
package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInstance is returned when a problem instance fails validation.
var ErrBadInstance = errors.New("core: invalid problem instance")

// ErrNoSolution is returned when a solver cannot produce an allocation.
var ErrNoSolution = errors.New("core: no solution")

// Instance is one slot's resource-allocation problem over K users and N
// FBSs plus the MBS common channel.
//
// Per user j (0-based): W[j] is the current video quality W^{t-1}_j in dB;
// R0[j] = beta_j*B0/T and R1[j] = beta_j*B1/T are the PSNR-increment
// constants of problem (10); PS0[j] and PS1[j] are the packet-success
// probabilities \bar{P}^F_{0,j} (from the MBS) and \bar{P}^F_{i,j} (from the
// user's serving FBS); FBS[j] in 1..N is the serving femtocell.
//
// Per FBS i (1-based): G[i-1] is the expected number of available licensed
// channels G^t_i allocated to that FBS this slot.
type Instance struct {
	//femtovet:unit dB
	//femtovet:index user
	W []float64
	//femtovet:unit dB
	//femtovet:index user
	R0 []float64
	//femtovet:unit dB
	//femtovet:index user
	R1 []float64
	//femtovet:unit prob
	//femtovet:index user
	PS0 []float64
	//femtovet:unit prob
	//femtovet:index user
	PS1 []float64
	//femtovet:index user
	FBS []int
	//femtovet:index fbs
	G []float64
	// WMax optionally holds each user's encoding quality ceiling (the PSNR
	// of the MGS encoding at its saturation rate). When present, solvers
	// never allocate share beyond the ceiling — extra rate past it cannot
	// improve the reconstructed video. Nil means unbounded.
	//femtovet:unit dB
	//femtovet:index user
	WMax []float64
}

// K returns the number of users.
//
//femtovet:index user
func (in *Instance) K() int { return len(in.W) }

// N returns the number of FBSs.
//
//femtovet:index fbs
func (in *Instance) N() int { return len(in.G) }

// Validate checks structural and numeric sanity.
func (in *Instance) Validate() error {
	k := in.K()
	if k == 0 {
		return fmt.Errorf("%w: no users", ErrBadInstance)
	}
	if len(in.R0) != k || len(in.R1) != k || len(in.PS0) != k ||
		len(in.PS1) != k || len(in.FBS) != k {
		return fmt.Errorf("%w: per-user slice lengths disagree (K=%d)", ErrBadInstance, k)
	}
	if in.N() == 0 {
		return fmt.Errorf("%w: no FBSs", ErrBadInstance)
	}
	for j := 0; j < k; j++ {
		if in.W[j] <= 0 || math.IsNaN(in.W[j]) || math.IsInf(in.W[j], 0) {
			return fmt.Errorf("%w: W[%d]=%v must be positive finite", ErrBadInstance, j, in.W[j])
		}
		if in.R0[j] < 0 || in.R1[j] < 0 || math.IsNaN(in.R0[j]) || math.IsNaN(in.R1[j]) {
			return fmt.Errorf("%w: R0[%d]=%v R1[%d]=%v", ErrBadInstance, j, in.R0[j], j, in.R1[j])
		}
		if in.PS0[j] < 0 || in.PS0[j] > 1 || in.PS1[j] < 0 || in.PS1[j] > 1 {
			return fmt.Errorf("%w: success probs PS0[%d]=%v PS1[%d]=%v", ErrBadInstance, j, in.PS0[j], j, in.PS1[j])
		}
		if in.FBS[j] < 1 || in.FBS[j] > in.N() {
			return fmt.Errorf("%w: FBS[%d]=%d out of 1..%d", ErrBadInstance, j, in.FBS[j], in.N())
		}
	}
	for i, g := range in.G {
		if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			return fmt.Errorf("%w: G[%d]=%v", ErrBadInstance, i, g)
		}
	}
	if in.WMax != nil {
		if len(in.WMax) != k {
			return fmt.Errorf("%w: WMax has %d entries for %d users", ErrBadInstance, len(in.WMax), k)
		}
		for j, wm := range in.WMax {
			if math.IsNaN(wm) || wm <= 0 {
				return fmt.Errorf("%w: WMax[%d]=%v", ErrBadInstance, j, wm)
			}
		}
	}
	return nil
}

// capFor returns the share ceiling (WMax-W)/r for user j on a resource with
// per-unit-rho increment r, or -1 when unbounded.
func (in *Instance) capFor(j int, r float64) float64 {
	if in.WMax == nil || r <= 0 {
		return -1
	}
	c := (in.WMax[j] - in.W[j]) / r
	if c < 0 {
		return 0
	}
	return c
}

// user0 builds user j's water-filling view of the common channel.
func (in *Instance) user0(j int) waterfillUser {
	return waterfillUser{ps: in.PS0[j], w: in.W[j], r: in.R0[j], cap: in.capFor(j, in.R0[j])}
}

// user1 builds user j's water-filling view of its FBS band.
func (in *Instance) user1(j int) waterfillUser {
	r := in.effR1(j)
	return waterfillUser{ps: in.PS1[j], w: in.W[j], r: r, cap: in.capFor(j, r)}
}

// UsersOf returns the 0-based indices of users served by FBS i (1-based),
// the set U_i of problem (17).
func (in *Instance) UsersOf(i int) []int {
	var out []int
	for j, f := range in.FBS {
		if f == i {
			out = append(out, j)
		}
	}
	return out
}

// effR1 returns the effective per-unit-rho PSNR increment of user j on its
// FBS band: G_i * R1_j.
func (in *Instance) effR1(j int) float64 {
	return in.G[in.FBS[j]-1] * in.R1[j]
}

// WithG returns a shallow copy of the instance with a different per-FBS
// expected-channel vector, used by the greedy allocator to evaluate Q(c)
// for candidate channel allocations.
func (in *Instance) WithG(g []float64) *Instance {
	cp := *in
	cp.G = g
	return &cp
}

// Allocation is a feasible solution to the per-slot problem: MBS[j] reports
// whether user j is served by the MBS this slot (p_j = 1) or by its FBS
// (q_j = 1); Rho0 and Rho1 are the time shares on the common channel and on
// the serving FBS's licensed band.
type Allocation struct {
	MBS  []bool
	Rho0 []float64
	Rho1 []float64
}

// NewAllocation returns an all-zero allocation for k users.
//
//femtovet:coldpath -- allocates the escaping per-run Allocation; per-slot solves reuse it through SolveInto
func NewAllocation(k int) *Allocation {
	return &Allocation{
		MBS:  make([]bool, k),
		Rho0: make([]float64, k),
		Rho1: make([]float64, k),
	}
}

// Feasible checks the allocation against the constraints of problem (17):
// nonnegative shares, per-resource sums at most 1 (within tol), and shares
// only on the chosen side (Theorem 1 structure).
func (a *Allocation) Feasible(in *Instance, tol float64) error {
	k := in.K()
	if len(a.MBS) != k || len(a.Rho0) != k || len(a.Rho1) != k {
		return fmt.Errorf("%w: allocation sized for %d users, instance has %d", ErrBadInstance, len(a.MBS), k)
	}
	sum0 := 0.0
	sumI := make([]float64, in.N())
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

// Objective evaluates the expected log-quality objective of problem (17)
// for this allocation. Each user contributes the exact conditional
// expectation of log(W^t) on its chosen branch:
// PS*log(W + rho*R_eff) + (1-PS)*log(W), i.e. the success branch where the
// quality grows plus the loss branch where it stays at W. (The paper's
// printed eq. (12) drops the loss term; keeping it makes the MBS-vs-FBS
// comparison depend on the expected log-gain rather than on the bare
// success-probability weights, which is what the stochastic program (11)
// specifies.)
func (a *Allocation) Objective(in *Instance) float64 {
	total := 0.0
	for j := 0; j < in.K(); j++ {
		logW := math.Log(in.W[j])
		if a.MBS[j] {
			gain := a.Rho0[j] * in.R0[j]
			total += in.PS0[j]*math.Log(in.W[j]+in.clampGain(j, gain)) + (1-in.PS0[j])*logW
		} else {
			gain := a.Rho1[j] * in.effR1(j)
			total += in.PS1[j]*math.Log(in.W[j]+in.clampGain(j, gain)) + (1-in.PS1[j])*logW
		}
	}
	return total
}

// clampGain caps a quality increment at the user's encoding ceiling.
func (in *Instance) clampGain(j int, gain float64) float64 {
	if in.WMax == nil {
		return gain
	}
	if room := in.WMax[j] - in.W[j]; gain > room {
		if room < 0 {
			return 0
		}
		return room
	}
	return gain
}

// ExpectedGain returns the expected PSNR increment of user j under this
// allocation: success probability times the deterministic quality increase,
// the per-user term the simulator credits in expectation-tracking mode.
func (a *Allocation) ExpectedGain(in *Instance, j int) float64 {
	if a.MBS[j] {
		return in.PS0[j] * a.Rho0[j] * in.R0[j]
	}
	return in.PS1[j] * a.Rho1[j] * in.effR1(j)
}

// Solver computes an allocation for one slot's problem.
type Solver interface {
	// Solve returns a feasible allocation. Implementations must not retain
	// or mutate the instance.
	Solve(in *Instance) (*Allocation, error)
	// SolveInto writes the allocation into a caller-owned buffer, letting
	// per-slot callers (the simulation engine, the greedy allocator's Q
	// evaluations) reuse one Allocation instead of allocating a fresh one
	// per solve. The buffer is resized and zeroed; any previous contents
	// are discarded.
	SolveInto(in *Instance, out *Allocation) error
	// Name identifies the scheme in experiment output.
	Name() string
}
