package core

import "repro/internal/mpisim"

// DynamicConfig parameterizes the online balancer.  Every value is used
// as given: the defaults live with the policies that build one
// (smtbalance.PaperDynamic).
type DynamicConfig struct {
	// CPU maps rank -> logical CPU (the job's placement); ranks sharing
	// a core (cpu/2) form a balancing pair.
	CPU []int
	// Threshold is the relative arrival gap (gap / iteration length)
	// above which the balancer reacts.
	Threshold float64
	// MaxDiff bounds the priority difference, at most 4 (the ladder's
	// top); the paper's Case D results (Section VII-A) show the penalty
	// grows exponentially.
	MaxDiff int
	// Hysteresis is the number of consecutive iterations the imbalance
	// must point the same way before the balancer moves, damping
	// oscillation and startup transients.
	Hysteresis int
}

// Dynamic is the online balancer: attach its OnIteration method to
// mpisim.Config.OnIteration.  At every barrier release it compares the
// arrival times of the two ranks of each core; if one rank consistently
// arrives late, the balancer raises the priority difference in its favor
// through the patched kernel's procfs interface, and backs off when the
// imbalance inverts.  It is application-agnostic and fully transparent —
// exactly the OS-level mechanism the paper argues for in Section VIII.
type Dynamic struct {
	*Ladder
	threshold float64
	maxDiff   int
	// lastRelease is the previous barrier release cycle.
	lastRelease int64
	// Moves counts priority rewrites performed (for reporting).
	Moves int
}

// NewDynamic builds a dynamic balancer for the given placement.
func NewDynamic(cfg DynamicConfig) *Dynamic {
	return &Dynamic{
		Ladder:    NewLadder(cfg.CPU, cfg.Hysteresis),
		threshold: cfg.Threshold,
		maxDiff:   cfg.MaxDiff,
	}
}

// Observe consumes one iteration's observations (per-rank compute
// cycles, barrier arrival cycles, the release cycle) and returns the
// priority writes to perform, two per moved pair.  It is the pure
// decision half of the balancer: the caller — the mpisim OnIteration
// adapter below, or the public policy engine — owns applying the
// actions through the kernel.
func (d *Dynamic) Observe(compute, arrival []int64, release int64) []Action {
	iterLen := release - d.lastRelease
	d.lastRelease = release
	if iterLen <= 0 {
		return nil
	}
	// Prefer the per-rank computation time (what the paper's OS
	// balancer would sample); barrier arrival can be synchronized by
	// exchange coupling and carries no per-rank signal then.
	signal := compute
	if signal == nil {
		signal = arrival
	}
	var acts []Action
	for i, pair := range d.Pairs() {
		// gap > 0: rank pair[0] is the pair's bottleneck.
		gap := float64(signal[pair[0]]-signal[pair[1]]) / float64(iterLen)
		acts = append(acts, d.Step(i, GapDir(gap, d.threshold), d.maxDiff)...)
	}
	return acts
}

// OnIteration implements the mpisim iteration hook: decide with Observe,
// then apply each pair's writes through procfs.  Best effort: on a
// vanilla kernel the file does not exist and the balancer is inert, as
// in reality.  Moves counts the pairs whose writes took effect.
func (d *Dynamic) OnIteration(ev mpisim.IterationEvent) {
	acts := d.Observe(ev.ComputeCycles, ev.Arrival, ev.Release)
	for i := 0; i+1 < len(acts); i += 2 {
		if !ev.ApplyPriority(acts[i].Rank, acts[i].Prio) {
			continue
		}
		if !ev.ApplyPriority(acts[i+1].Rank, acts[i+1].Prio) {
			continue
		}
		d.Moves++
	}
}
