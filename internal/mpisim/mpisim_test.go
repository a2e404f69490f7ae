package mpisim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/hwpri"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/trace"
	"repro/internal/workload"
)

// quietCfg returns a config without OS noise so tests are exactly
// reproducible and fast.
func quietCfg() Config {
	chip := power5.DefaultConfig()
	chip.BranchBits = 10
	return Config{
		Chip:      chip,
		Kernel:    oskernel.Config{Patched: true},
		KernelSet: true,
		MaxCycles: 1 << 26,
	}
}

func fpu(n int64) workload.Load { return workload.Load{Kind: workload.FPU, N: n} }

// balancedJob returns ranks with identical loads and a final barrier.
func balancedJob(ranks int, n int64) *Job {
	job := &Job{Name: "balanced"}
	for r := 0; r < ranks; r++ {
		job.Ranks = append(job.Ranks, Program{Compute(fpu(n)), Barrier()})
	}
	return job
}

func TestValidation(t *testing.T) {
	cfg := quietCfg()
	if _, err := RunCtx(t.Context(), &Job{Name: "empty"}, Placement{}, cfg); err == nil {
		t.Error("empty job accepted")
	}
	job := balancedJob(2, 100)
	if _, err := RunCtx(t.Context(), job, Placement{CPU: []int{0}, Prio: []hwpri.Priority{4}}, cfg); err == nil {
		t.Error("placement size mismatch accepted")
	}
	if _, err := RunCtx(t.Context(), job, Placement{CPU: []int{0, 9}, Prio: []hwpri.Priority{4, 4}}, cfg); err == nil {
		t.Error("invalid CPU accepted")
	}
	if _, err := RunCtx(t.Context(), job, Placement{CPU: []int{0, 0}, Prio: []hwpri.Priority{4, 4}}, cfg); err == nil {
		t.Error("double-pinned CPU accepted")
	}
}

func TestBalancedRun(t *testing.T) {
	res, err := RunCtx(t.Context(), balancedJob(4, 20000), DefaultPlacement(4), quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 {
		t.Fatal("no time elapsed")
	}
	if res.Imbalance > 10 {
		t.Errorf("balanced job shows %.1f%% imbalance", res.Imbalance)
	}
	for r, rr := range res.Ranks {
		if rr.ComputePct < 85 {
			t.Errorf("rank %d compute%% = %.1f, want > 85 for balanced job", r, rr.ComputePct)
		}
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

// TestImbalancedJob: a heavy rank makes the others wait; the imbalance
// metric and per-rank stats must reflect it (the paper's Case A shape).
func TestImbalancedJob(t *testing.T) {
	job := &Job{Name: "imbalanced", Ranks: []Program{
		{Compute(fpu(10000)), Barrier()},
		{Compute(fpu(40000)), Barrier()},
		{Compute(fpu(10000)), Barrier()},
		{Compute(fpu(40000)), Barrier()},
	}}
	res, err := RunCtx(t.Context(), job, DefaultPlacement(4), quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance < 40 {
		t.Errorf("imbalance = %.1f%%, want > 40%% for a 4x load skew", res.Imbalance)
	}
	if res.Ranks[0].SyncPct < res.Ranks[1].SyncPct {
		t.Error("light rank waits less than heavy rank")
	}
	if res.Ranks[1].ComputePct < 90 {
		t.Errorf("heavy rank compute%% = %.1f, want > 90", res.Ranks[1].ComputePct)
	}
}

// TestPriorityBalancing is the paper's core claim end-to-end: favoring the
// heavy rank on each core shortens total execution time.
func TestPriorityBalancing(t *testing.T) {
	job := &Job{Name: "metbench-like", Ranks: []Program{
		{Compute(fpu(10000)), Barrier()},
		{Compute(fpu(40000)), Barrier()},
		{Compute(fpu(10000)), Barrier()},
		{Compute(fpu(40000)), Barrier()},
	}}
	base, err := RunCtx(t.Context(), job, DefaultPlacement(4), quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := RunCtx(t.Context(), job, Placement{
		CPU:  []int{0, 1, 2, 3},
		Prio: []hwpri.Priority{4, 6, 4, 6},
	}, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cycles >= base.Cycles {
		t.Errorf("priority balancing did not help: %d >= %d cycles", tuned.Cycles, base.Cycles)
	}
	if tuned.Imbalance >= base.Imbalance {
		t.Errorf("imbalance not reduced: %.1f%% >= %.1f%%", tuned.Imbalance, base.Imbalance)
	}
}

// TestOverPenalization is the Case D shape: starving the light ranks too
// hard inverts the imbalance and hurts total time.
func TestOverPenalization(t *testing.T) {
	job := &Job{Name: "case-d", Ranks: []Program{
		{Compute(fpu(10000)), Barrier()},
		{Compute(fpu(40000)), Barrier()},
		{Compute(fpu(10000)), Barrier()},
		{Compute(fpu(40000)), Barrier()},
	}}
	good, err := RunCtx(t.Context(), job, Placement{CPU: []int{0, 1, 2, 3}, Prio: []hwpri.Priority{4, 6, 4, 6}}, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := RunCtx(t.Context(), job, Placement{CPU: []int{0, 1, 2, 3}, Prio: []hwpri.Priority{2, 6, 2, 6}}, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if bad.Cycles <= good.Cycles {
		t.Errorf("over-penalization did not hurt: %d <= %d", bad.Cycles, good.Cycles)
	}
	// The bottleneck flips: now the heavy ranks wait for the light ones.
	if bad.Ranks[1].SyncPct <= good.Ranks[1].SyncPct {
		t.Error("imbalance not inverted under over-penalization")
	}
}

func TestMultipleIterations(t *testing.T) {
	const iters = 5
	job := &Job{Name: "iterative"}
	for r := 0; r < 4; r++ {
		var p Program
		for i := 0; i < iters; i++ {
			p = append(p, Compute(fpu(3000)), Barrier())
		}
		job.Ranks = append(job.Ranks, p)
	}
	var events []IterationEvent
	cfg := quietCfg()
	cfg.OnIteration = func(ev IterationEvent) { events = append(events, ev) }
	res, err := RunCtx(t.Context(), job, DefaultPlacement(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != iters {
		t.Errorf("iterations = %d, want %d", res.Iterations, iters)
	}
	if len(events) != iters {
		t.Fatalf("OnIteration fired %d times, want %d", len(events), iters)
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Errorf("event %d has index %d", i, ev.Index)
		}
		if len(ev.Arrival) != 4 || len(ev.PIDs) != 4 {
			t.Error("event missing per-rank data")
		}
		if ev.Kernel == nil {
			t.Error("event missing kernel handle")
		}
		for r, a := range ev.Arrival {
			if a <= 0 || a > ev.Release {
				t.Errorf("event %d rank %d arrival %d outside (0, release=%d]", i, r, a, ev.Release)
			}
		}
	}
}

// TestExchangePhases: neighbour exchanges synchronize pairs, not the whole
// job, and show up as Comm time.
func TestExchangePhases(t *testing.T) {
	// No trailing barrier: exchange coupling is pairwise only.
	job := &Job{Name: "exchange", Ranks: []Program{
		{Compute(fpu(5000)), Exchange(4096, 1), Compute(fpu(5000))},
		{Compute(fpu(20000)), Exchange(4096, 0), Compute(fpu(5000))},
		{Compute(fpu(5000)), Exchange(4096, 3), Compute(fpu(5000))},
		{Compute(fpu(5000)), Exchange(4096, 2), Compute(fpu(5000))},
	}}
	res, err := RunCtx(t.Context(), job, DefaultPlacement(4), quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 waits for its slow partner rank 1; ranks 2/3 are unaffected
	// by that pair's skew.
	if res.Ranks[0].SyncPct < 20 {
		t.Errorf("rank 0 sync%% = %.1f, want substantial wait for slow peer", res.Ranks[0].SyncPct)
	}
	if res.Ranks[2].SyncPct > res.Ranks[0].SyncPct/2 {
		t.Errorf("pair 2-3 (sync %.1f%%) affected by pair 0-1 skew (rank 0 sync %.1f%%)",
			res.Ranks[2].SyncPct, res.Ranks[0].SyncPct)
	}
	for r := range res.Ranks {
		if res.Ranks[r].CommPct <= 0 {
			t.Errorf("rank %d has no comm time", r)
		}
	}
}

// TestSingleThreadPlacement: the ST rows of Tables V/VI — two ranks at
// priority 7 with siblings offlined run faster per-rank than four SMT
// ranks, but the 4-rank SMT run finishes the same total work sooner.
func TestSingleThreadPlacement(t *testing.T) {
	const work = 40000
	smt, err := RunCtx(t.Context(), balancedJob(4, work/2), DefaultPlacement(4), quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunCtx(t.Context(), balancedJob(2, work), Placement{
		CPU:  []int{0, 2},
		Prio: []hwpri.Priority{hwpri.VeryHigh, hwpri.VeryHigh},
	}, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if smt.Cycles >= st.Cycles {
		t.Errorf("SMT (4 ranks) %d cycles not faster than ST (2 ranks) %d for equal total work",
			smt.Cycles, st.Cycles)
	}
	// But ST must be faster than 2x the SMT per-rank rate would suggest:
	// each ST rank had the whole core.
	if st.Cycles >= 2*smt.Cycles {
		t.Errorf("ST shows no per-thread benefit: %d >= 2x %d", st.Cycles, smt.Cycles)
	}
}

func TestTraceShape(t *testing.T) {
	res, err := RunCtx(t.Context(), balancedJob(2, 5000), Placement{
		CPU:  []int{0, 1},
		Prio: []hwpri.Priority{4, 4},
	}, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Trace.Render(60)
	if !strings.Contains(out, "P1") || !strings.Contains(out, "P2") {
		t.Errorf("trace render missing ranks:\n%s", out)
	}
	for r := 0; r < 2; r++ {
		ivs := res.Trace.Intervals(r)
		if len(ivs) == 0 || ivs[0].State != trace.Compute {
			t.Errorf("rank %d does not start computing: %+v", r, ivs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	job := &Job{Name: "det", Ranks: []Program{
		{Compute(fpu(8000)), Exchange(1024, 1), Compute(fpu(3000)), Barrier()},
		{Compute(fpu(12000)), Exchange(1024, 0), Compute(fpu(3000)), Barrier()},
		{Compute(fpu(6000)), Barrier()},
		{Compute(fpu(9000)), Barrier()},
	}}
	pl := Placement{CPU: []int{0, 1, 2, 3}, Prio: []hwpri.Priority{4, 5, 4, 6}}
	a, err := RunCtx(t.Context(), job, pl, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(t.Context(), job, pl, quietCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Imbalance != b.Imbalance {
		t.Errorf("non-deterministic: %d/%f vs %d/%f", a.Cycles, a.Imbalance, b.Cycles, b.Imbalance)
	}
}

func TestDeadlockGuard(t *testing.T) {
	// Rank 1 never reaches the exchange that rank 0 waits for.
	job := &Job{Name: "deadlock", Ranks: []Program{
		{Exchange(64, 1)},
		{Compute(workload.Load{Kind: workload.Spin})}, // never ends
	}}
	cfg := quietCfg()
	cfg.MaxCycles = 200000
	if _, err := RunCtx(t.Context(), job, DefaultPlacement(2), cfg); err == nil {
		t.Fatal("deadlocked job did not error")
	}
}

// TestVanillaKernelClobbersPriorities: with the unpatched kernel, the
// priority assignment decays at the first tick, so balancing is lost —
// the reason the paper had to patch Linux (Section VI).
func TestVanillaKernelClobbersPriorities(t *testing.T) {
	job := &Job{Name: "clobber", Ranks: []Program{
		{Compute(fpu(8000)), Barrier()},
		{Compute(fpu(32000)), Barrier()},
		{Compute(fpu(8000)), Barrier()},
		{Compute(fpu(32000)), Barrier()},
	}}
	pl := Placement{CPU: []int{0, 1, 2, 3}, Prio: []hwpri.Priority{4, 6, 4, 6}}

	patched := quietCfg()
	patched.Kernel = oskernel.Config{Patched: true, TickPeriod: 2500, TickCost: 150}
	pRes, err := RunCtx(t.Context(), job, pl, patched)
	if err != nil {
		t.Fatal(err)
	}
	vanilla := quietCfg()
	vanilla.Kernel = oskernel.Config{Patched: false, TickPeriod: 2500, TickCost: 150}
	vRes, err := RunCtx(t.Context(), job, pl, vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if vRes.Cycles <= pRes.Cycles {
		t.Errorf("vanilla kernel did not lose the balancing benefit: %d <= %d cycles",
			vRes.Cycles, pRes.Cycles)
	}
}

func TestCommLatencyDefault(t *testing.T) {
	same := DefaultCommLatency(0, 1, 0)
	cross := DefaultCommLatency(0, 2, 0)
	if cross <= same {
		t.Error("cross-core latency not higher than same-core")
	}
	if DefaultCommLatency(0, 1, 1<<20) <= same {
		t.Error("bytes do not add latency")
	}
}

// multiChipCfg is quietCfg on a chips×2×2 machine.
func multiChipCfg(chips int) Config {
	cfg := quietCfg()
	cfg.Topology = power5.Topology{Chips: chips, CoresPerChip: 2, SMTWays: 2}
	return cfg
}

// TestMultiChipRun runs an 8-rank job end-to-end on a 2-chip machine:
// every context is occupied, barriers span both chips, and per-rank
// results carry the right (chip, core) coordinates.
func TestMultiChipRun(t *testing.T) {
	res, err := RunCtx(t.Context(), balancedJob(8, 20000), DefaultPlacement(8), multiChipCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
	if len(res.Ranks) != 8 {
		t.Fatalf("got %d rank results, want 8", len(res.Ranks))
	}
	for r, rr := range res.Ranks {
		if rr.CPU != r || rr.Core != r/2 || rr.Chip != r/4 {
			t.Errorf("rank %d at (cpu %d, core %d, chip %d), want (%d, %d, %d)",
				r, rr.CPU, rr.Core, rr.Chip, r, r/2, r/4)
		}
		if rr.ComputePct < 85 {
			t.Errorf("rank %d compute%% = %.1f, want > 85 for balanced job", r, rr.ComputePct)
		}
	}
	if res.Imbalance > 10 {
		t.Errorf("balanced 8-rank job shows %.1f%% imbalance", res.Imbalance)
	}
}

// TestMultiChipMirrorsSingleChip pins the same 4-rank job to chip 0 and
// to chip 1 of a 2-chip machine; the chips are identical, so the results
// must be identical too.
func TestMultiChipMirrorsSingleChip(t *testing.T) {
	job := balancedJob(4, 15000)
	onChip := func(chip int) *Result {
		pl := DefaultPlacement(4)
		for i := range pl.CPU {
			pl.CPU[i] += chip * 4
		}
		res, err := RunCtx(t.Context(), job, pl, multiChipCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := onChip(0), onChip(1)
	if a.Cycles != b.Cycles || a.Imbalance != b.Imbalance {
		t.Errorf("chip 0 run (%d cycles, %.2f%%) differs from chip 1 run (%d cycles, %.2f%%)",
			a.Cycles, a.Imbalance, b.Cycles, b.Imbalance)
	}
}

// TestMultiChipPriorityBalancing asserts the paper's mechanism operates
// per-core across the whole node: an imbalanced 8-rank job improves when
// every heavy rank is favored over its light sibling, on both chips.
func TestMultiChipPriorityBalancing(t *testing.T) {
	job := &Job{Name: "imbalanced8"}
	for r := 0; r < 8; r++ {
		n := int64(12000)
		if r%2 == 1 {
			n = 48000
		}
		job.Ranks = append(job.Ranks, Program{Compute(fpu(n)), Barrier(), Compute(fpu(n)), Barrier()})
	}
	base, err := RunCtx(t.Context(), job, DefaultPlacement(8), multiChipCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	bal := DefaultPlacement(8)
	for r := 1; r < 8; r += 2 {
		bal.Prio[r] = hwpri.High // heavy ranks favored (case C per core)
	}
	tuned, err := RunCtx(t.Context(), job, bal, multiChipCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cycles >= base.Cycles {
		t.Errorf("priority balancing on 2 chips did not help: %d >= %d cycles", tuned.Cycles, base.Cycles)
	}
	if tuned.Imbalance >= base.Imbalance {
		t.Errorf("imbalance did not shrink: %.2f%% >= %.2f%%", tuned.Imbalance, base.Imbalance)
	}
}

// TestTopologyCommLatency pins down the three latency tiers.
func TestTopologyCommLatency(t *testing.T) {
	topo := power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	lat := TopologyCommLatency(topo)
	if got := lat(0, 1, 0); got != 300 {
		t.Errorf("same-core latency = %d, want 300", got)
	}
	if got := lat(0, 2, 0); got != 800 {
		t.Errorf("same-chip latency = %d, want 800", got)
	}
	if got := lat(0, 4, 0); got != crossChipCommBase {
		t.Errorf("cross-chip latency = %d, want %d", got, crossChipCommBase)
	}
	// Single-chip topologies reduce to DefaultCommLatency.
	one := TopologyCommLatency(power5.DefaultTopology())
	for _, c := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if got, want := one(c[0], c[1], 256), DefaultCommLatency(c[0], c[1], 256); got != want {
			t.Errorf("1-chip latency(%d,%d) = %d, want DefaultCommLatency %d", c[0], c[1], got, want)
		}
	}
}

func TestRunCtxCancellation(t *testing.T) {
	job := &Job{Name: "cancel"}
	for r := 0; r < 4; r++ {
		job.Ranks = append(job.Ranks, Program{
			Compute(workload.Load{Kind: workload.FPU, N: 1 << 40}), // effectively endless
			Barrier(),
		})
	}
	pl := DefaultPlacement(4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, job, pl, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunCtx returned %v, want context.Canceled", err)
	}

	// Cancel mid-run: the loop must notice within one scheduling quantum
	// instead of simulating the full 2^40-instruction job.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, job, pl, Config{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return within 30s")
	}
}

// TestLoadDrift checks the per-iteration drift hook: the hook sees each
// rank's compute phases with their in-program index, its rewrites
// change the run, and an unchanged-load hook leaves the run identical.
func TestLoadDrift(t *testing.T) {
	job := &Job{Name: "drift"}
	for r := 0; r < 2; r++ {
		job.Ranks = append(job.Ranks, Program{
			Compute(fpu(10000)), Barrier(),
			Compute(fpu(10000)), Barrier(),
			Compute(fpu(10000)), Barrier(),
		})
	}
	pl := DefaultPlacement(2)

	base, err := RunCtx(t.Context(), job, pl, quietCfg())
	if err != nil {
		t.Fatal(err)
	}

	// Identity drift: same run, and the observed (rank, index) calls
	// cover each rank's compute phases in order.
	seen := make(map[int][]int)
	cfg := quietCfg()
	cfg.LoadDrift = func(rank, idx int, load workload.Load) workload.Load {
		seen[rank] = append(seen[rank], idx)
		return load
	}
	same, err := RunCtx(t.Context(), job, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if same.Cycles != base.Cycles {
		t.Errorf("identity drift changed the run: %d vs %d cycles", same.Cycles, base.Cycles)
	}
	for r := 0; r < 2; r++ {
		if len(seen[r]) != 3 {
			t.Fatalf("rank %d drift hook fired %d times, want 3", r, len(seen[r]))
		}
		for i, idx := range seen[r] {
			if idx != i {
				t.Errorf("rank %d call %d reported compute index %d", r, i, idx)
			}
		}
	}

	// A real drift — rank 1 ramps up over the iterations — must slow
	// the run down.
	cfg = quietCfg()
	cfg.LoadDrift = func(rank, idx int, load workload.Load) workload.Load {
		if rank == 1 {
			load.N *= int64(idx + 2)
		}
		return load
	}
	drifted, err := RunCtx(t.Context(), job, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Cycles <= base.Cycles {
		t.Errorf("ramping drift did not slow the run: %d vs %d cycles", drifted.Cycles, base.Cycles)
	}

	// A hook returning a non-positive count is clamped, not an infinite
	// kernel.
	cfg = quietCfg()
	cfg.LoadDrift = func(rank, idx int, load workload.Load) workload.Load {
		load.N = 0
		return load
	}
	tiny, err := RunCtx(t.Context(), job, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Cycles >= base.Cycles {
		t.Errorf("clamped zero-load drift did not shrink the run: %d vs %d cycles", tiny.Cycles, base.Cycles)
	}
}
