package cloud

import "fmt"

// The paper simulates multi-tenancy by confining EDA jobs with Linux
// Control Groups on a 14-core Xeon host. This file reproduces the
// relevant scheduler behaviour: weighted fair sharing of host cores
// with optional hard quotas, computed by progressive filling (the
// steady-state allocation of CFS bandwidth control).

// CGroup is one tenant's CPU controller settings plus its offered load.
type CGroup struct {
	Name string
	// Shares is the cpu.shares weight (default 1024).
	Shares int
	// QuotaCores caps the group's CPU consumption in cores
	// (cpu.cfs_quota_us / cpu.cfs_period_us); 0 means unlimited.
	QuotaCores float64
	// DemandCores is the load the tenant tries to run (its runnable
	// threads).
	DemandCores float64
}

// Allocation is the scheduler's steady-state CPU grant for one group.
type Allocation struct {
	Name   string
	Demand float64
	Got    float64
	// Throttle is Got/Demand in (0,1]; 1 means no throttling.
	Throttle float64
}

// Slowdown returns the multiplicative runtime overhead the tenant
// experiences: extra-time fraction Demand/Got - 1, so 0 means no
// interference.
func (a Allocation) Slowdown() float64 {
	if a.Demand <= 0 {
		return 0
	}
	if a.Got <= 0 {
		return 1e9
	}
	return a.Demand/a.Got - 1
}

// Host is a physical machine shared by tenant cgroups.
type Host struct {
	Cores int
}

// DefaultHost mirrors the paper's characterization machine: a 14-core
// Xeon E5-2680.
func DefaultHost() Host { return Host{Cores: 14} }

// Schedule computes the steady-state CPU allocation of the groups on
// the host using progressive filling: capacity is repeatedly divided
// among unsatisfied groups in proportion to their shares, capping each
// group at min(demand, quota). The returned allocations preserve input
// order.
func (h Host) Schedule(groups []CGroup) ([]Allocation, error) {
	if h.Cores <= 0 {
		return nil, fmt.Errorf("cloud: host has no cores")
	}
	out := make([]Allocation, len(groups))
	type state struct {
		idx    int
		weight float64
		cap    float64 // min(demand, quota)
		got    float64
	}
	states := make([]*state, 0, len(groups))
	var active []*state
	for i, g := range groups {
		if g.Shares < 0 || g.QuotaCores < 0 || g.DemandCores < 0 {
			return nil, fmt.Errorf("cloud: cgroup %q has negative settings", g.Name)
		}
		shares := g.Shares
		if shares == 0 {
			shares = 1024
		}
		lim := g.DemandCores
		if g.QuotaCores > 0 && g.QuotaCores < lim {
			lim = g.QuotaCores
		}
		out[i] = Allocation{Name: g.Name, Demand: g.DemandCores, Throttle: 1}
		if lim > 0 {
			s := &state{idx: i, weight: float64(shares), cap: lim}
			states = append(states, s)
			active = append(active, s)
		}
	}
	remaining := float64(h.Cores)
	for len(active) > 0 && remaining > 1e-12 {
		var totalW float64
		for _, s := range active {
			totalW += s.weight
		}
		// The proportional fill rate (cores per unit weight) is limited
		// by the first group to saturate its cap.
		fill := remaining / totalW
		saturating := false
		for _, s := range active {
			if need := (s.cap - s.got) / s.weight; need < fill {
				fill = need
				saturating = true
			}
		}
		var used float64
		next := active[:0]
		for _, s := range active {
			grant := float64(fill * s.weight)
			s.got += grant
			used += grant
			if s.cap-s.got > 1e-12 {
				next = append(next, s)
			}
		}
		active = next
		remaining -= used
		if !saturating {
			break // everyone got the proportional share of the remainder
		}
	}
	for _, s := range states {
		out[s.idx].Got = s.got
		if out[s.idx].Demand > 0 {
			t := s.got / out[s.idx].Demand
			if t > 1 {
				t = 1
			}
			out[s.idx].Throttle = t
		}
	}
	return out, nil
}

// Interference returns the slowdown factor an EDA job with the given
// vCPU demand experiences on the host when the listed background
// tenants are also runnable. The job runs with default shares and a
// quota equal to its demand (the paper's cgroup confinement).
func (h Host) Interference(jobCores float64, background []CGroup) (float64, error) {
	groups := append([]CGroup{{
		Name:        "eda-job",
		QuotaCores:  jobCores,
		DemandCores: jobCores,
	}}, background...)
	alloc, err := h.Schedule(groups)
	if err != nil {
		return 0, err
	}
	return alloc[0].Slowdown(), nil
}
