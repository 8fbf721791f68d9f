package core

// SolverSession carries warm-start state across the consecutive per-slot
// solves of one cell. Channel occupancy is a two-state Markov chain
// (internal/markov), so consecutive slots' problems are strongly correlated
// and slot t-1's converged dual multipliers are an excellent seed for slot
// t's subgradient iteration; the session owns that carried state so the
// solvers themselves stay stateless and shareable.
//
// A session belongs to exactly one engine (one cell, one goroutine): it is
// NOT safe for concurrent use. The sharded runner gets per-shard sessions
// for free because every shard constructs its own engine.
//
// Lifetime and re-cold-start triggers: the carried state is keyed to the
// instance shape (user count, FBS count, and the user->FBS membership).
// A solve against a differently-shaped instance silently drops the carried
// state and cold-starts; so does the divergence guard inside each solver
// (a warm attempt that fails to converge within the iteration budget
// restarts cold in the same call). Only the expected-channel vector G and
// the qualities W may drift between warm solves — which is exactly the
// Markov temporal coherence the warm start exploits.
//
// The zero value is NOT ready for use; construct with NewSolverSession or
// NewColdProbeSession.
type SolverSession struct {
	seeding bool // warm seeding enabled; false = cold-probe (record-only)

	// Shape signature of the instance the carried state belongs to.
	users, fbss int
	fbsSig      uint64

	// Dual-subgradient state: the previous solve's converged multipliers
	// (session-owned copy, length N+1) and the diminishing-schedule
	// position the most recent cold start converged at. Warm solves resume
	// the schedule at that fixed position — steps stay at the magnitude
	// that terminated the cold solve, so the tracker neither freezes (the
	// position does not accumulate across slots) nor overshoots.
	lambda     []float64
	scaleRef   []float64
	tau        int
	haveLambda bool

	// Equilibrium-solver state: the previous solve's outer common price.
	l0     float64
	haveL0 bool

	stats SessionStats
	last  int
	hist  []int64 // per-solve iteration histogram; nil until EnableStats
}

// SessionStats counts the solves recorded through a session.
type SessionStats struct {
	// Solves is the total number of solves recorded.
	Solves int
	// WarmSolves counts solves seeded from carried multipliers.
	WarmSolves int
	// ColdStarts counts solves that started cold: the first solve, any
	// solve after a shape change or Reset, and every cold-probe solve.
	ColdStarts int
	// Restarts counts divergence-guard trips: warm attempts that failed to
	// converge within the iteration budget and re-ran cold.
	Restarts int
	// TrivialSolves counts trivially-feasible instances short-circuited at
	// zero prices with zero iterations.
	TrivialSolves int
	// TotalIters sums the iterations of every solve, including the failed
	// warm attempt of a divergence restart.
	TotalIters int64
	// MaxIters is the largest per-solve iteration count observed.
	MaxIters int
}

// Merge adds other's counters into s (for folding per-shard sessions).
func (s *SessionStats) Merge(other *SessionStats) {
	s.Solves += other.Solves
	s.WarmSolves += other.WarmSolves
	s.ColdStarts += other.ColdStarts
	s.Restarts += other.Restarts
	s.TrivialSolves += other.TrivialSolves
	s.TotalIters += other.TotalIters
	if other.MaxIters > s.MaxIters {
		s.MaxIters = other.MaxIters
	}
}

// sessionHistSize caps the iteration histogram; solves beyond it land in
// the final bucket. It comfortably covers the default 2000-iteration cap.
const sessionHistSize = 4096

// NewSolverSession returns a session with warm seeding enabled.
func NewSolverSession() *SolverSession {
	return &SolverSession{seeding: true}
}

// NewColdProbeSession returns a record-only session: every solve through it
// cold-starts exactly like the session-less path, but iteration statistics
// are still collected. This is how the warm-start benchmarks measure the
// cold baseline with the same instrumentation.
func NewColdProbeSession() *SolverSession {
	return &SolverSession{seeding: false}
}

// EnableStats allocates the per-solve iteration histogram that backs
// IterationQuantile. Call once at construction time (it allocates); the
// per-solve recording itself is allocation-free.
func (s *SolverSession) EnableStats() {
	if s.hist == nil {
		s.hist = make([]int64, sessionHistSize)
	}
}

// Reset drops all carried state (the next solve cold-starts) and clears the
// recorded statistics.
func (s *SolverSession) Reset() {
	s.users, s.fbss, s.fbsSig = 0, 0, 0
	s.haveLambda, s.haveL0 = false, false
	s.tau = 0
	s.stats = SessionStats{}
	s.last = 0
	for i := range s.hist {
		s.hist[i] = 0
	}
}

// Seeding reports whether warm seeding is enabled.
func (s *SolverSession) Seeding() bool { return s.seeding }

// Stats returns a snapshot of the recorded counters.
func (s *SolverSession) Stats() SessionStats { return s.stats }

// LastIterations returns the iteration count of the most recent solve.
func (s *SolverSession) LastIterations() int { return s.last }

// IterationMean returns the mean iterations per solve, or 0 before any
// solve.
func (s *SolverSession) IterationMean() float64 {
	if s.stats.Solves == 0 {
		return 0
	}
	return float64(s.stats.TotalIters) / float64(s.stats.Solves)
}

// IterationQuantile returns the q-quantile (0 <= q <= 1) of the per-solve
// iteration counts, or -1 when EnableStats was not called or no solve has
// been recorded.
func (s *SolverSession) IterationQuantile(q float64) int {
	if s.hist == nil || s.stats.Solves == 0 {
		return -1
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(s.stats.Solves))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.hist {
		cum += c
		if cum >= target {
			return i
		}
	}
	return sessionHistSize - 1
}

// HistCopy returns a copy of the per-solve iteration histogram (index =
// iterations, last bucket open-ended), or nil when EnableStats was not
// called. Callers fold copies across sessions to compute exact aggregate
// quantiles.
func (s *SolverSession) HistCopy() []int64 {
	if s.hist == nil {
		return nil
	}
	return append([]int64(nil), s.hist...)
}

// fbsSignature hashes the user->FBS membership (FNV-1a over the indices),
// the cheap shape fingerprint behind the re-cold-start trigger.
func fbsSignature(fbs []int) uint64 {
	h := uint64(1469598103934665603)
	for _, f := range fbs {
		h ^= uint64(f)
		h *= 1099511628211
	}
	return h
}

// observe checks the instance shape against the carried state, dropping the
// state on a mismatch, and reports whether the carried multipliers may seed
// this solve.
//
//femtovet:hotpath
//femtovet:borrows in
func (s *SolverSession) observe(in *Instance) {
	k, n := in.K(), in.N()
	sig := fbsSignature(in.FBS)
	if k != s.users || n != s.fbss || sig != s.fbsSig {
		s.users, s.fbss, s.fbsSig = k, n, sig
		s.haveLambda, s.haveL0 = false, false
		s.tau = 0
	}
}

// note records one solve's iteration count.
//
//femtovet:hotpath
func (s *SolverSession) note(iters int, warm, trivial bool) {
	s.stats.Solves++
	if warm {
		s.stats.WarmSolves++
	} else {
		s.stats.ColdStarts++
	}
	if trivial {
		s.stats.TrivialSolves++
	}
	s.stats.TotalIters += int64(iters)
	if iters > s.stats.MaxIters {
		s.stats.MaxIters = iters
	}
	s.last = iters
	if s.hist != nil {
		i := iters
		if i >= sessionHistSize {
			i = sessionHistSize - 1
		}
		s.hist[i]++
	}
}

// storeLambda copies the converged multipliers into the session-owned
// buffer. Nothing aliases the solver workspace: the session outlives the
// solve, the workspace does not.
//
//femtovet:hotpath
//femtovet:borrows lambda
func (s *SolverSession) storeLambda(lambda, scale []float64, tau int, coldStart bool) {
	s.lambda = growF(s.lambda, len(lambda))
	copy(s.lambda, lambda)
	s.scaleRef = growF(s.scaleRef, len(scale))
	copy(s.scaleRef, scale)
	s.haveLambda = true
	if coldStart {
		// Warm solves resume at the position the last cold start converged
		// at; only a cold start moves it.
		s.tau = tau
	}
}

// WarmSolver is implemented by solvers whose per-slot solves can be seeded
// from a SolverSession carried across consecutive slots. A nil session (or
// one whose seeding is disabled) degrades to the cold SolveInto path with
// statistics recording.
type WarmSolver interface {
	Solver
	SolveWarmInto(in *Instance, out *Allocation, sess *SolverSession) error
}
