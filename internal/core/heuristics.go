package core

// Heuristic1 is the paper's first baseline: each CR user locally picks the
// better channel mode — the common channel or its FBS's licensed band —
// from its own channel conditions, and every resource's time slot is split
// equally among the users that chose it. Decisions are local: no
// coordination across users.
type Heuristic1 struct{}

var _ Solver = Heuristic1{}

// Name identifies the scheme.
func (Heuristic1) Name() string { return "Heuristic 1" }

// Solve splits each resource equally among the users that selected it.
func (h Heuristic1) Solve(in *Instance) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	alloc := NewAllocation(in.K())
	h.solveInto(in, alloc)
	return alloc, nil
}

// SolveInto solves into a caller-owned allocation.
//
//femtovet:hotpath
//femtovet:borrows in, out
func (h Heuristic1) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	h.solveInto(in, out)
	return nil
}

func (Heuristic1) solveInto(in *Instance, alloc *Allocation) {
	k := in.K()
	alloc.resize(k)
	// Each user compares the expected per-unit-time quality rate of the two
	// modes: success probability times the PSNR increment rate.
	for j := 0; j < k; j++ {
		mbsRate := in.PS0[j] * in.R0[j]
		fbsRate := in.PS1[j] * in.effR1(j)
		alloc.MBS[j] = mbsRate > fbsRate
	}
	// Equal split per resource.
	ws := getWorkspace()
	defer putWorkspace(ws)
	fbsCount := growI(ws.wfIdx, in.N())
	ws.wfIdx = fbsCount
	for i := range fbsCount {
		fbsCount[i] = 0
	}
	mbsCount := 0
	for j := 0; j < k; j++ {
		if alloc.MBS[j] {
			mbsCount++
		} else {
			fbsCount[in.FBS[j]-1]++
		}
	}
	for j := 0; j < k; j++ {
		if alloc.MBS[j] {
			alloc.Rho0[j] = 1 / float64(mbsCount)
		} else {
			alloc.Rho1[j] = 1 / float64(fbsCount[in.FBS[j]-1])
		}
	}
}

// Heuristic2 is the paper's second baseline, exploiting multiuser
// diversity: each FBS grants its entire slot to the served user with the
// best channel condition, and the MBS grants its slot to the
// best-conditioned user not already selected by an FBS. Decisions are made
// globally by the base stations rather than locally by users.
type Heuristic2 struct{}

var _ Solver = Heuristic2{}

// Name identifies the scheme.
func (Heuristic2) Name() string { return "Heuristic 2" }

// Solve grants whole slots to the best-channel users.
func (h Heuristic2) Solve(in *Instance) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	alloc := NewAllocation(in.K())
	h.solveInto(in, alloc)
	return alloc, nil
}

// SolveInto solves into a caller-owned allocation.
//
//femtovet:hotpath
//femtovet:borrows in, out
func (h Heuristic2) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	h.solveInto(in, out)
	return nil
}

func (Heuristic2) solveInto(in *Instance, alloc *Allocation) {
	k := in.K()
	alloc.resize(k)
	ws := getWorkspace()
	defer putWorkspace(ws)
	taken := growB(ws.alive, k)
	ws.alive = taken
	for j := range taken {
		taken[j] = false
	}
	byFBS := ws.groupByFBS(in)

	// Each FBS picks its user with the highest packet-success probability
	// (ties to the lowest index, making runs reproducible).
	for i := 1; i <= in.N(); i++ {
		best := -1
		for _, j := range byFBS[i] {
			if best == -1 || in.PS1[j] > in.PS1[best] {
				best = j
			}
		}
		if best >= 0 {
			alloc.MBS[best] = false
			alloc.Rho1[best] = 1
			taken[best] = true
		}
	}
	// The MBS picks the best remaining user; a single-transceiver user
	// cannot listen to two base stations in one slot.
	best := -1
	for j := 0; j < k; j++ {
		if taken[j] {
			continue
		}
		if best == -1 || in.PS0[j] > in.PS0[best] {
			best = j
		}
	}
	if best >= 0 {
		alloc.MBS[best] = true
		alloc.Rho0[best] = 1
	}
}
