package core

import (
	"testing"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

func quietCfg() mpisim.Config {
	chip := power5.DefaultConfig()
	chip.BranchBits = 10
	return mpisim.Config{
		Chip:      chip,
		Kernel:    oskernel.Config{Patched: true},
		KernelSet: true,
		MaxCycles: 1 << 28,
	}
}

func fpu(n int64) workload.Load { return workload.Load{Kind: workload.FPU, N: n} }

// steadyJob builds an iterative job with fixed per-rank loads.
func steadyJob(loads []int64, iters int) *mpisim.Job {
	job := &mpisim.Job{Name: "steady"}
	for _, n := range loads {
		var p mpisim.Program
		for i := 0; i < iters; i++ {
			p = append(p, mpisim.Compute(fpu(n)), mpisim.Barrier())
		}
		job.Ranks = append(job.Ranks, p)
	}
	return job
}

// shiftingJob alternates the bottleneck between the two ranks of each core
// every block iterations — the SIESTA behaviour of Section VII-C.
func shiftingJob(iters, block int) *mpisim.Job {
	job := &mpisim.Job{Name: "shifting", Ranks: make([]mpisim.Program, 4)}
	for i := 0; i < iters; i++ {
		heavyFirst := (i/block)%2 == 0
		for r := 0; r < 4; r++ {
			n := int64(4000)
			if (r%2 == 0) == heavyFirst {
				n = 16000
			}
			job.Ranks[r] = append(job.Ranks[r], mpisim.Compute(fpu(n)), mpisim.Barrier())
		}
	}
	return job
}

// testDynamic is the balancer configuration these tests were written
// for: threshold 0.05, differences up to 3, hysteresis 2.
func testDynamic(cpu []int) DynamicConfig {
	return DynamicConfig{CPU: cpu, Threshold: 0.05, MaxDiff: 3, Hysteresis: 2}
}

func TestNewDynamicPairs(t *testing.T) {
	d := NewDynamic(testDynamic([]int{0, 1, 2, 3}))
	if len(d.Pairs()) != 2 {
		t.Fatalf("pairs = %v, want 2 pairs", d.Pairs())
	}
	if p := d.Pairs()[0]; p[0]/1 != 0 || p[1] != 1 {
		t.Errorf("pair 0 = %v, want ranks 0,1 (CPUs 0,1 share core 0)", p)
	}
	// Cross-placed ranks pair by core, not by rank number.
	d2 := NewDynamic(testDynamic([]int{0, 2, 3, 1}))
	if p := d2.Pairs()[0]; p[0] != 0 || p[1] != 3 {
		t.Errorf("pair 0 = %v, want ranks 0,3", p)
	}
	// Unpaired ranks (ST placement) yield no pairs.
	d3 := NewDynamic(testDynamic([]int{0, 2}))
	if len(d3.Pairs()) != 0 {
		t.Error("ST placement must have no balancing pairs")
	}
	// Cores are walked up to the highest one in use, and a core holding
	// a lone rank yields no pair.
	if p := NewDynamic(testDynamic([]int{6, 7})).Pairs(); len(p) != 1 || p[0] != [2]int{0, 1} {
		t.Errorf("pairs on core 3 = %v, want [[0 1]]", p)
	}
	if p := NewDynamic(testDynamic([]int{0, 5, 4})).Pairs(); len(p) != 1 || p[0] != [2]int{1, 2} {
		t.Errorf("pairs with a lone rank on core 0 = %v, want [[1 2]]", p)
	}
}

// TestDynamicConvergesOnSteadyImbalance: on a steady 4x skew the balancer
// must move the priority difference toward the heavy ranks and stay there.
func TestDynamicConvergesOnSteadyImbalance(t *testing.T) {
	job := steadyJob([]int64{4000, 16000, 4000, 16000}, 12)
	pl := mpisim.DefaultPlacement(4)
	bal := NewDynamic(testDynamic(pl.CPU))
	cfg := quietCfg()
	cfg.OnIteration = bal.OnIteration
	res, err := mpisim.RunCtx(t.Context(), job, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bal.Moves == 0 {
		t.Fatal("balancer never moved")
	}
	diffs := bal.Diffs()
	// Ranks 1 and 3 (heavy) are the second element of each pair, so the
	// converged diff must be negative (favoring them).
	for i, d := range diffs {
		if d >= 0 {
			t.Errorf("pair %d diff = %d, want negative (favoring heavy rank)", i, d)
		}
	}
	// And it must beat the unbalanced run.
	base, err := mpisim.RunCtx(t.Context(), job, pl, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles >= base.Cycles {
		t.Errorf("dynamic balancing did not help: %d >= %d cycles", res.Cycles, base.Cycles)
	}
}

// TestDynamicTracksShiftingBottleneck: when the bottleneck moves between
// ranks, the balancer must follow it (the static assignment cannot).
func TestDynamicTracksShiftingBottleneck(t *testing.T) {
	// Phases of 8 iterations give the damped balancer (hysteresis 2,
	// one step per move) room to cross from favoring one rank to
	// favoring the other before the bottleneck flips again.
	job := shiftingJob(32, 8)
	pl := mpisim.DefaultPlacement(4)

	bal := NewDynamic(testDynamic(pl.CPU))
	cfg := quietCfg()
	var diffTrail []int
	cfg.OnIteration = func(ev mpisim.IterationEvent) {
		bal.OnIteration(ev)
		diffTrail = append(diffTrail, bal.Diffs()[0])
	}
	dyn, err := mpisim.RunCtx(t.Context(), job, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The diff must change sign at least once as the bottleneck flips.
	sawNeg, sawPos := false, false
	for _, d := range diffTrail {
		if d < 0 {
			sawNeg = true
		}
		if d > 0 {
			sawPos = true
		}
	}
	if !sawNeg || !sawPos {
		t.Errorf("balancer did not track the moving bottleneck: trail %v", diffTrail)
	}

	// A static assignment favoring rank 0 permanently must lose to the
	// dynamic balancer on this workload.
	static := mpisim.Placement{CPU: pl.CPU, Prio: []hwpri.Priority{6, 4, 6, 4}}
	stat, err := mpisim.RunCtx(t.Context(), job, static, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Cycles >= stat.Cycles {
		t.Errorf("dynamic (%d cycles) not better than wrong static (%d cycles)", dyn.Cycles, stat.Cycles)
	}
}

// TestDynamicStaysPutWhenBalanced: no moves on a balanced application.
func TestDynamicStaysPutWhenBalanced(t *testing.T) {
	job := steadyJob([]int64{8000, 8000, 8000, 8000}, 8)
	pl := mpisim.DefaultPlacement(4)
	bal := NewDynamic(testDynamic(pl.CPU))
	cfg := quietCfg()
	cfg.OnIteration = bal.OnIteration
	if _, err := mpisim.RunCtx(t.Context(), job, pl, cfg); err != nil {
		t.Fatal(err)
	}
	if bal.Moves != 0 {
		t.Errorf("balancer made %d moves on a balanced job", bal.Moves)
	}
}

// TestDynamicRespectsMaxDiff: the difference never exceeds the bound.
func TestDynamicRespectsMaxDiff(t *testing.T) {
	job := steadyJob([]int64{1000, 64000, 1000, 64000}, 10)
	pl := mpisim.DefaultPlacement(4)
	dc := testDynamic(pl.CPU)
	dc.MaxDiff = 2
	bal := NewDynamic(dc)
	cfg := quietCfg()
	cfg.OnIteration = bal.OnIteration
	if _, err := mpisim.RunCtx(t.Context(), job, pl, cfg); err != nil {
		t.Fatal(err)
	}
	for _, d := range bal.Diffs() {
		if d < -2 || d > 2 {
			t.Errorf("diff %d exceeds MaxDiff 2", d)
		}
	}
}

// TestDynamicInertOnVanillaKernel: without the kernel patch the procfs
// writes fail and the balancer performs no moves — the paper's motivation
// for patching the kernel.
func TestDynamicInertOnVanillaKernel(t *testing.T) {
	job := steadyJob([]int64{4000, 16000, 4000, 16000}, 6)
	pl := mpisim.DefaultPlacement(4)
	bal := NewDynamic(testDynamic(pl.CPU))
	cfg := quietCfg()
	cfg.Kernel = oskernel.Config{Patched: false}
	cfg.OnIteration = bal.OnIteration
	if _, err := mpisim.RunCtx(t.Context(), job, pl, cfg); err != nil {
		t.Fatal(err)
	}
	if bal.Moves != 0 {
		t.Errorf("balancer moved %d times through a nonexistent procfs", bal.Moves)
	}
}

func TestDynamicHysteresis(t *testing.T) {
	// With hysteresis 3, a single imbalanced iteration must not trigger.
	dc := testDynamic([]int{0, 1})
	dc.Hysteresis = 3
	d := NewDynamic(dc)
	if len(d.Pairs()) != 1 {
		t.Fatal("expected one pair")
	}
	ev := mpisim.IterationEvent{
		Arrival: []int64{1000, 100},
		Release: 1000,
	}
	// Kernel nil would panic on apply; hysteresis must prevent reaching
	// apply for the first two calls.
	d.lastRelease = 0
	func() {
		defer func() { recover() }()
		d.OnIteration(ev)
	}()
	if d.Diffs()[0] != 0 {
		t.Error("moved before hysteresis expired")
	}
}
