package core

// RoundRobin is an extension baseline below both of the paper's heuristics:
// plain TDMA. Each slot, every FBS grants its whole band to the next of its
// users in rotation, and the MBS grants the common channel to the next user
// overall that its FBS did not pick. No channel-state information is used
// at all, which makes it the natural "no optimization" anchor for the
// comparisons.
//
// The scheduler is stateful (the rotation counter advances per Solve call)
// and not safe for concurrent use.
type RoundRobin struct {
	counter int
}

var _ Solver = (*RoundRobin)(nil)

// Name identifies the scheme.
func (r *RoundRobin) Name() string { return "Round robin" }

// Solve grants whole slots in rotation.
func (r *RoundRobin) Solve(in *Instance) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	alloc := NewAllocation(in.K())
	r.solveInto(in, alloc)
	return alloc, nil
}

// SolveInto solves into a caller-owned allocation, advancing the rotation.
//
//femtovet:hotpath
//femtovet:borrows in, out
func (r *RoundRobin) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	r.solveInto(in, out)
	return nil
}

func (r *RoundRobin) solveInto(in *Instance, alloc *Allocation) {
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
	for i := 1; i <= in.N(); i++ {
		users := byFBS[i]
		if len(users) == 0 {
			continue
		}
		j := users[r.counter%len(users)]
		alloc.Rho1[j] = 1
		taken[j] = true
	}
	// The MBS serves the next not-yet-served user in global rotation.
	for off := 0; off < k; off++ {
		j := (r.counter + off) % k
		if !taken[j] {
			alloc.MBS[j] = true
			alloc.Rho0[j] = 1
			break
		}
	}
	r.counter++
}
