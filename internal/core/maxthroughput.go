package core

// MaxThroughput is an extension baseline at the opposite pole from the
// paper's proportional fairness: it maximizes the sum of expected quality
// increments sum_j PS_j * rho_j * R_j with no concern for balance. For a
// linear objective with per-user demand ceilings, the optimum per resource
// is a greedy fill: serve users in decreasing PS*R_eff order, each up to
// its encoding ceiling, until the slot is exhausted. Without ceilings it
// degenerates to winner-takes-all, essentially Heuristic 2 with exact
// shares.
type MaxThroughput struct{}

var _ Solver = MaxThroughput{}

// Name identifies the scheme.
func (MaxThroughput) Name() string { return "Max throughput" }

// Solve assigns each user to its higher-rate side, greedily fills each
// resource in rate order, then polishes the association by coordinate
// flips: moving one user to the other base station can raise the total
// when it leaves an otherwise-idle resource busy.
func (m MaxThroughput) Solve(in *Instance) (*Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	alloc := NewAllocation(in.K())
	m.solveInto(in, alloc)
	return alloc, nil
}

// SolveInto solves into a caller-owned allocation.
//
//femtovet:hotpath
//femtovet:borrows in, out
func (m MaxThroughput) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	m.solveInto(in, out)
	return nil
}

func (MaxThroughput) solveInto(in *Instance, alloc *Allocation) {
	k := in.K()
	alloc.resize(k)
	ws := getWorkspace()
	defer putWorkspace(ws)
	for j := 0; j < k; j++ {
		alloc.MBS[j] = in.PS0[j]*in.R0[j] > in.PS1[j]*in.effR1(j)
	}
	fillLinear(in, alloc, ws)
	cur := totalExpectedGain(in, alloc)
	for round := 0; round < 4; round++ {
		improved := false
		for j := 0; j < k; j++ {
			alloc.MBS[j] = !alloc.MBS[j]
			fillLinear(in, alloc, ws)
			if v := totalExpectedGain(in, alloc); v > cur+1e-12 {
				cur = v
				improved = true
			} else {
				alloc.MBS[j] = !alloc.MBS[j]
				fillLinear(in, alloc, ws)
			}
		}
		if !improved {
			break
		}
	}
}

// totalExpectedGain sums the expected quality increments of an allocation.
func totalExpectedGain(in *Instance, a *Allocation) float64 {
	sum := 0.0
	for j := 0; j < in.K(); j++ {
		sum += a.ExpectedGain(in, j)
	}
	return sum
}

// fillLinear greedily fills every resource in decreasing PS*R_eff order up
// to each user's demand ceiling — the exact optimum of the linear
// per-resource problem. All scratch (the association groups and per-user
// rates) lives on the workspace: byFBS slot 0, unused by the 1-based FBS
// numbering, holds the MBS-associated users.
func fillLinear(in *Instance, alloc *Allocation, ws *solveWorkspace) {
	k, n := in.K(), in.N()
	if cap(ws.byFBS) < n+1 {
		ws.byFBS = make([][]int, n+1)
	} else {
		ws.byFBS = ws.byFBS[:n+1]
	}
	groups := ws.byFBS
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	rates := growF(ws.gains, k)
	ws.gains = rates
	for j := 0; j < k; j++ {
		alloc.Rho0[j] = 0
		alloc.Rho1[j] = 0
		if alloc.MBS[j] {
			groups[0] = append(groups[0], j)
			rates[j] = in.PS0[j] * in.R0[j]
		} else {
			groups[in.FBS[j]] = append(groups[in.FBS[j]], j)
			rates[j] = in.PS1[j] * in.effR1(j)
		}
	}
	fillGroup(in, alloc, groups[0], rates, true)
	for i := 1; i <= n; i++ {
		fillGroup(in, alloc, groups[i], rates, false)
	}
}

// fillGroup pours the unit budget over one resource's users, selecting the
// next-best user on demand instead of pre-sorting the whole group: the fill
// usually exhausts the budget after one or two users, so the quadratic sort
// the association-polish loop re-ran on every flip collapses to a couple of
// linear scans. Selection by (rate descending, index ascending) is a strict
// total order and reproduces the unique sequence the previous stable
// descending sort presented — ties included — so the shares are
// bit-identical.
func fillGroup(in *Instance, alloc *Allocation, order []int, rates []float64, mbs bool) {
	budget := 1.0
	for t := 0; t < len(order); t++ {
		if budget <= 0 {
			break
		}
		best := t
		for s := t + 1; s < len(order); s++ {
			if cand, cur := order[s], order[best]; rates[cand] > rates[cur] ||
				(rates[cand] == rates[cur] && cand < cur) { //femtovet:ignore floateq -- exact tie-break reproduces the former stable sort's order bitwise
				best = s
			}
		}
		order[t], order[best] = order[best], order[t]
		j := order[t]
		if rates[j] <= 0 {
			break
		}
		share := budget
		var c float64
		if mbs {
			c = in.capFor(j, in.R0[j])
		} else {
			c = in.capFor(j, in.effR1(j))
		}
		if c >= 0 && share > c {
			share = c
		}
		if mbs {
			alloc.Rho0[j] = share
		} else {
			alloc.Rho1[j] = share
		}
		budget -= share
	}
}
