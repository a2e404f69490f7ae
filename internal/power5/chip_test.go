package power5

import (
	"testing"

	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/workload"
)

// testConfig returns the default config with a small branch predictor to
// keep allocations cheap in unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BranchBits = 10
	return cfg
}

// runSolo executes a load alone on (core 0, thread 0) with the sibling off
// and returns completed instructions and elapsed cycles.
func runSolo(t *testing.T, load workload.Load, maxCycles int64) (int64, int64) {
	t.Helper()
	ch := MustNew(testConfig())
	ch.SetPriority(0, 1, hwpri.ThreadOff)
	ch.SetPriority(0, 0, hwpri.VeryHigh)
	ch.SetStream(0, 0, load.Stream())
	start := ch.Cycle()
	ch.RunUntil(maxCycles)
	return ch.Stats(0, 0).Completed, ch.Cycle() - start
}

// runPair co-runs two loads on core 0 with the given priorities for a
// fixed cycle budget and returns the completed instruction counts.
func runPair(t *testing.T, a, b workload.Load, pa, pb hwpri.Priority, cycles int64) (int64, int64) {
	t.Helper()
	ch := MustNew(testConfig())
	ch.SetPriority(0, 0, pa)
	ch.SetPriority(0, 1, pb)
	ch.SetStream(0, 0, a.Stream())
	ch.SetStream(0, 1, b.Stream())
	ch.Run(cycles)
	return ch.Stats(0, 0).Completed, ch.Stats(0, 1).Completed
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ThreadsPerCore = 4 },
		func(c *Config) { c.DecodeWidth = 0 },
		func(c *Config) { c.WindowSize = 1 },
		func(c *Config) { c.FPUnits = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.FPLatency = 0 },
		func(c *Config) { c.BranchBits = 2 },
		func(c *Config) { c.ClockHz = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestRunsToCompletion(t *testing.T) {
	const n = 10000
	done, cycles := runSolo(t, workload.Load{Kind: workload.FXU, N: n, Seed: 1}, 1<<22)
	if done != n {
		t.Fatalf("completed %d of %d instructions", done, n)
	}
	if cycles <= 0 || cycles > 10*n {
		t.Fatalf("unreasonable cycle count %d for %d instructions", cycles, n)
	}
	ipc := float64(done) / float64(cycles)
	if ipc < 0.3 || ipc > 5 {
		t.Errorf("solo FXU IPC = %.2f, outside sane range", ipc)
	}
}

func TestAllIdleAfterCompletion(t *testing.T) {
	ch := MustNew(testConfig())
	ch.SetStream(0, 0, workload.Load{Kind: workload.FXU, N: 100, Seed: 1}.Stream())
	ch.RunUntil(1 << 20)
	if !ch.AllIdle() {
		t.Error("chip not idle after the only stream finished")
	}
	if got := ch.Stats(0, 0).Completed; got != 100 {
		t.Errorf("completed %d, want 100", got)
	}
}

func TestOnEmptyCallback(t *testing.T) {
	ch := MustNew(testConfig())
	var fired []int
	ch.OnEmpty(func(core, thread int) {
		fired = append(fired, core*2+thread)
		if len(fired) == 1 {
			// Install a second stream from inside the callback.
			ch.SetStream(core, thread, workload.Load{Kind: workload.FXU, N: 50, Seed: 2}.Stream())
		}
	})
	ch.SetStream(0, 0, workload.Load{Kind: workload.FXU, N: 50, Seed: 1}.Stream())
	ch.RunUntil(1 << 20)
	if len(fired) != 2 {
		t.Fatalf("OnEmpty fired %d times, want 2", len(fired))
	}
	if got := ch.Stats(0, 0).Completed; got != 100 {
		t.Errorf("completed %d, want 100 across both streams", got)
	}
}

func TestHaltStopsRun(t *testing.T) {
	ch := MustNew(testConfig())
	ch.OnEmpty(func(core, thread int) { ch.Halt() })
	ch.SetStream(0, 0, workload.Load{Kind: workload.FXU, N: 100, Seed: 1}.Stream())
	ch.SetStream(0, 1, workload.Load{Kind: workload.Spin, Seed: 2}.Stream())
	ran := ch.RunUntil(1 << 30)
	if !ch.Halted() {
		t.Error("chip did not report halt")
	}
	if ran >= 1<<30 {
		t.Error("Halt did not stop the run early")
	}
}

// TestEqualPrioritiesFair: two identical compute streams at equal priority
// must progress at (nearly) the same rate.
func TestEqualPrioritiesFair(t *testing.T) {
	la := workload.Load{Kind: workload.FXU, Seed: 1, Base: 0}
	lb := workload.Load{Kind: workload.FXU, Seed: 1, Base: 1 << 30}
	la.N, lb.N = 1<<40, 1<<40 // effectively unbounded
	a, b := runPair(t, la, lb, hwpri.Medium, hwpri.Medium, 50000)
	ratio := float64(a) / float64(b)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("equal-priority progress ratio %.3f, want ~1.0 (a=%d b=%d)", ratio, a, b)
	}
}

// TestPriorityFavorsThread: raising one thread's priority must speed it up
// and slow the sibling, monotonically in the difference.
func TestPriorityFavorsThread(t *testing.T) {
	mk := func(seed uint64, base uint64) workload.Load {
		return workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: seed, Base: base}
	}
	const cycles = 40000
	prevA, prevB := int64(0), int64(1<<62)
	for _, pa := range []hwpri.Priority{4, 5, 6} {
		a, b := runPair(t, mk(1, 0), mk(1, 1<<30), pa, hwpri.Medium, cycles)
		if a < prevA {
			t.Errorf("favored thread slowed down at priority %d: %d < %d", pa, a, prevA)
		}
		if b > prevB {
			t.Errorf("penalized thread sped up at priority %d: %d > %d", pa, b, prevB)
		}
		if pa > hwpri.Medium && a <= b {
			t.Errorf("priority %d vs 4: favored %d not ahead of penalized %d", pa, a, b)
		}
		prevA, prevB = a, b
	}
}

// TestExponentialPenalty reproduces the Section VII-A Case D observation:
// the penalized thread's slowdown grows super-linearly (roughly following
// the 1/R decode share) with the priority difference.
func TestExponentialPenalty(t *testing.T) {
	mk := func(base uint64) workload.Load {
		return workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1, Base: base}
	}
	const cycles = 60000
	_, base := runPair(t, mk(0), mk(1<<30), hwpri.Medium, hwpri.Medium, cycles)
	var rates []float64
	for _, pa := range []hwpri.Priority{5, 6} {
		_, b := runPair(t, mk(0), mk(1<<30), pa, hwpri.MediumLow, cycles)
		rates = append(rates, float64(b)/float64(base))
	}
	// Differences 2 and 3: static shares 1/8 and 1/16 of decode.  The
	// penalized thread must be well below half its equal-priority rate,
	// and each extra step must cost at least another ~1.5x.
	if rates[0] > 0.5 {
		t.Errorf("diff-2 penalized rate %.2f of baseline, want < 0.5", rates[0])
	}
	if rates[1] > rates[0]/1.4 {
		t.Errorf("diff-3 rate %.3f not well below diff-2 rate %.3f", rates[1], rates[0])
	}
}

// TestSingleThreadMode: with the sibling off, a thread must run faster
// than when co-running at equal priorities.
func TestSingleThreadMode(t *testing.T) {
	l := workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1}
	const cycles = 40000
	ch := MustNew(testConfig())
	ch.SetPriority(0, 1, hwpri.ThreadOff)
	ch.SetPriority(0, 0, hwpri.VeryHigh)
	ch.SetStream(0, 0, l.Stream())
	ch.Run(cycles)
	st := ch.Stats(0, 0).Completed

	co, _ := runPair(t, l, workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1, Base: 1 << 30},
		hwpri.Medium, hwpri.Medium, cycles)
	if st <= co {
		t.Errorf("ST mode completed %d, not faster than SMT co-run %d", st, co)
	}
}

// TestPowerSaveMode: both threads at priority 1 make almost no progress
// (1 of 64 decode cycles each).
func TestPowerSaveMode(t *testing.T) {
	la := workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1}
	lb := workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1, Base: 1 << 30}
	const cycles = 64000
	a, b := runPair(t, la, lb, hwpri.VeryLow, hwpri.VeryLow, cycles)
	// Upper bound: 5 instructions per 64 cycles each.
	max := int64(cycles/64*5 + 100)
	if a > max || b > max {
		t.Errorf("power-save progress a=%d b=%d exceeds decode bound %d", a, b, max)
	}
	if a == 0 || b == 0 {
		t.Error("power-save mode must still make some progress")
	}
}

// TestThrottledMode: priority 0 vs 1 gives the survivor 1 of 32 cycles.
func TestThrottledMode(t *testing.T) {
	ch := MustNew(testConfig())
	ch.SetPriority(0, 0, hwpri.ThreadOff)
	ch.SetPriority(0, 1, hwpri.VeryLow)
	ch.SetStream(0, 1, workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1}.Stream())
	const cycles = 32000
	ch.Run(cycles)
	got := ch.Stats(0, 1).Completed
	max := int64(cycles/32*5 + 100)
	if got > max {
		t.Errorf("throttled progress %d exceeds bound %d", got, max)
	}
	if got == 0 {
		t.Error("throttled thread must still progress")
	}
}

// TestLeftoverMode: a priority-1 thread only gets cycles its sibling
// cannot use, so it crawls while the sibling runs at full speed.
func TestLeftoverMode(t *testing.T) {
	la := workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1}
	lb := workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1, Base: 1 << 30}
	const cycles = 40000
	a, b := runPair(t, la, lb, hwpri.Medium, hwpri.VeryLow, cycles)
	if b*5 > a {
		t.Errorf("leftover thread completed %d, sibling %d; want sibling >> leftover", b, a)
	}
}

// TestOrNopPriorityChange: a user-level or-nop can move priority within
// {2,3,4} but not reach supervisor levels.
func TestOrNopPriorityChange(t *testing.T) {
	ch := MustNew(testConfig())
	s := isa.Concat(
		isa.PrioritySet(uint8(hwpri.Low)),
		isa.PrioritySet(uint8(hwpri.High)), // must be ignored in problem state
		workload.Load{Kind: workload.FXU, N: 20, Seed: 1}.Stream(),
	)
	ch.SetStream(0, 0, s)
	ch.RunUntil(10000)
	if got := ch.Priority(0, 0); got != hwpri.Low {
		t.Errorf("priority after user or-nops = %v, want low", got)
	}
	if got := ch.Stats(0, 0).PrioritySets; got != 2 {
		t.Errorf("PrioritySets = %d, want 2", got)
	}
}

func TestOrNopSupervisorPrivilege(t *testing.T) {
	ch := MustNew(testConfig())
	ch.SetPrivilege(0, 0, hwpri.Supervisor)
	s := isa.Concat(
		isa.PrioritySet(uint8(hwpri.High)),
		workload.Load{Kind: workload.FXU, N: 20, Seed: 1}.Stream(),
	)
	ch.SetStream(0, 0, s)
	ch.RunUntil(10000)
	if got := ch.Priority(0, 0); got != hwpri.High {
		t.Errorf("priority after supervisor or-nop = %v, want high", got)
	}
}

// TestMispredictsStallDecode: a branchy kernel with random outcomes must
// complete more slowly than the same volume of plain integer work.
func TestMispredictsStallDecode(t *testing.T) {
	const n = 20000
	_, fxCycles := runSolo(t, workload.Load{Kind: workload.FXU, N: n, Seed: 1}, 1<<22)
	_, brCycles := runSolo(t, workload.Load{Kind: workload.Branchy, N: n, Seed: 1}, 1<<22)
	if brCycles <= fxCycles {
		t.Errorf("branchy kernel (%d cycles) not slower than FXU kernel (%d cycles)", brCycles, fxCycles)
	}
	ch := MustNew(testConfig())
	ch.SetStream(0, 0, workload.Load{Kind: workload.Branchy, N: n, Seed: 1}.Stream())
	ch.RunUntil(1 << 22)
	if ch.Stats(0, 0).Mispredicts == 0 {
		t.Error("branchy kernel recorded no mispredicts")
	}
}

// TestMemoryBoundKernelSlow: the Mem kernel's IPC must be far below the
// L1-resident kernel's.
func TestMemoryBoundKernelSlow(t *testing.T) {
	const n = 20000
	_, l1Cycles := runSolo(t, workload.Load{Kind: workload.L1, N: n, Seed: 1}, 1<<24)
	_, memCycles := runSolo(t, workload.Load{Kind: workload.Mem, N: n, Seed: 1}, 1<<24)
	if memCycles < 2*l1Cycles {
		t.Errorf("mem kernel %d cycles, want at least 2x the L1 kernel's %d", memCycles, l1Cycles)
	}
	ch := MustNew(testConfig())
	ch.SetStream(0, 0, workload.Load{Kind: workload.Mem, N: n, Seed: 1}.Stream())
	ch.RunUntil(1 << 24)
	if ch.Stats(0, 0).L1Misses == 0 {
		t.Error("mem kernel recorded no L1 misses")
	}
}

// TestMemoryLatencyTolerance: a memory-bound thread loses much less from
// a low priority than a compute-bound thread does, because its speed is
// latency-limited, not decode-limited (Section IV: "non-HPC applications
// may benefit differently from re-assigning hardware resources or not at
// all").
func TestMemoryLatencyTolerance(t *testing.T) {
	const cycles = 120000
	mkFX := func(base uint64) workload.Load {
		return workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1, Base: base}
	}
	mkMem := func(base uint64) workload.Load {
		return workload.Load{Kind: workload.Mem, N: 1 << 40, Seed: 1, Base: base}
	}
	_, fxEq := runPair(t, mkFX(0), mkFX(1<<30), hwpri.Medium, hwpri.Medium, cycles)
	_, fxPen := runPair(t, mkFX(0), mkFX(1<<30), hwpri.High, hwpri.Medium, cycles)
	_, memEq := runPair(t, mkFX(0), mkMem(1<<30), hwpri.Medium, hwpri.Medium, cycles)
	_, memPen := runPair(t, mkFX(0), mkMem(1<<30), hwpri.High, hwpri.Medium, cycles)
	fxLoss := 1 - float64(fxPen)/float64(fxEq)
	memLoss := 1 - float64(memPen)/float64(memEq)
	if memLoss >= fxLoss {
		t.Errorf("memory-bound loss %.2f not below compute-bound loss %.2f", memLoss, fxLoss)
	}
}

// TestDeterminism: identical runs produce identical cycle counts and
// counters.
func TestDeterminism(t *testing.T) {
	run := func() (int64, ContextStats) {
		ch := MustNew(testConfig())
		ch.SetStream(0, 0, workload.Load{Kind: workload.Mixed, N: 30000, Seed: 9}.Stream())
		ch.SetStream(0, 1, workload.Load{Kind: workload.L2, N: 30000, Seed: 5, Base: 1 << 30}.Stream())
		ch.SetPriority(0, 0, hwpri.MediumHigh)
		ch.RunUntil(1 << 24)
		return ch.Cycle(), ch.Stats(0, 0)
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("non-deterministic: cycles %d vs %d, stats %+v vs %+v", c1, c2, s1, s2)
	}
}

// TestCoresIndependent: activity on core 1 does not change core 0's
// timing beyond shared-cache effects; with disjoint tiny footprints the
// cycle counts must match exactly.
func TestCoresIndependent(t *testing.T) {
	// Measure the cycle at which core 0's stream runs dry, with core 1
	// idle vs busy on a disjoint footprint: the times must match exactly
	// because cores only share the L2/L3 (and the footprints fit L1).
	finishCycle := func(withCore1 bool) (int64, int64) {
		ch := MustNew(testConfig())
		ch.SetPriority(0, 1, hwpri.ThreadOff)
		ch.SetPriority(0, 0, hwpri.VeryHigh)
		ch.SetStream(0, 0, workload.Load{Kind: workload.FXU, N: 5000, Seed: 1}.Stream())
		if withCore1 {
			ch.SetStream(1, 0, workload.Load{Kind: workload.FXU, N: 40000, Seed: 3, Base: 1 << 32}.Stream())
		}
		var core0Done int64 = -1
		ch.OnEmpty(func(core, thread int) {
			if core == 0 && core0Done < 0 {
				core0Done = ch.Cycle()
			}
		})
		ch.RunUntil(1 << 22)
		return core0Done, ch.Stats(0, 0).Completed
	}
	soloCycle, soloDone := finishCycle(false)
	busyCycle, busyDone := finishCycle(true)
	if soloDone != busyDone {
		t.Fatalf("core 0 completed %d with core 1 busy, want %d", busyDone, soloDone)
	}
	if soloCycle != busyCycle {
		t.Errorf("core 0 finish cycle %d with core 1 busy, %d solo", busyCycle, soloCycle)
	}
}

// TestSpinInterference: a spinning sibling at equal priority costs the
// compute thread some throughput; lowering the spinner's priority
// recovers most of it.  This is the paper's central mechanism.
func TestSpinInterference(t *testing.T) {
	const cycles = 60000
	compute := workload.Load{Kind: workload.FXU, N: 1 << 40, Seed: 1}
	spin := workload.Load{Kind: workload.Spin, Seed: 2, Base: 1 << 30}

	ch := MustNew(testConfig())
	ch.SetPriority(0, 1, hwpri.ThreadOff)
	ch.SetPriority(0, 0, hwpri.VeryHigh)
	ch.SetStream(0, 0, compute.Stream())
	ch.Run(cycles)
	alone := ch.Stats(0, 0).Completed

	withSpin, _ := runPair(t, compute, spin, hwpri.Medium, hwpri.Medium, cycles)
	demoted, _ := runPair(t, compute, spin, hwpri.High, hwpri.Medium, cycles)

	if withSpin >= alone {
		t.Errorf("spinning sibling costs nothing: alone %d, with spin %d", alone, withSpin)
	}
	if demoted <= withSpin {
		t.Errorf("raising priority over a spinner did not help: %d <= %d", demoted, withSpin)
	}
}

func TestStatsAccessors(t *testing.T) {
	ch := MustNew(testConfig())
	ch.SetStream(0, 0, workload.Load{Kind: workload.FXU, N: 100, Seed: 1}.Stream())
	ch.RunUntil(1 << 20)
	st := ch.Stats(0, 0)
	if st.Decoded != 100 || st.Completed != 100 {
		t.Errorf("decoded %d completed %d, want 100/100", st.Decoded, st.Completed)
	}
	if st.DecodeCycles == 0 {
		t.Error("DecodeCycles not counted")
	}
	if ipc := st.IPC(ch.Cycle()); ipc <= 0 {
		t.Errorf("IPC = %f", ipc)
	}
	if st.IPC(0) != 0 {
		t.Error("IPC over zero cycles must be 0")
	}
	if ch.Seconds(int64(ch.Config().ClockHz)) != 1.0 {
		t.Error("Seconds conversion wrong")
	}
	if ch.InFlight(0, 0) != 0 {
		t.Error("in-flight after idle must be 0")
	}
	if ch.Running(0, 0) {
		t.Error("context still running after stream end")
	}
	if ch.Allocation(0).Mode != hwpri.ModeShared {
		t.Error("default allocation mode must be shared")
	}
	if ch.Predictor(0) == nil || ch.Hierarchy() == nil {
		t.Error("accessors returned nil")
	}
}

func TestBadContextPanics(t *testing.T) {
	ch := MustNew(testConfig())
	for _, f := range []func(){
		func() { ch.SetStream(2, 0, nil) },
		func() { ch.SetPriority(0, 2, hwpri.Medium) },
		func() { ch.SetPriority(0, 0, hwpri.Priority(9)) },
		func() { ch.Stats(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestUndefinedOpPanics: no functional unit executes an op outside the
// defined classes, so issuing one must fail loudly, naming the context
// and the op, instead of wedging the context until Run's budget is
// spent.
func TestUndefinedOpPanics(t *testing.T) {
	ch := MustNew(testConfig())
	ch.SetStream(1, 1, isa.NewSliceStream([]isa.Instr{{Op: isa.FX}, {Op: isa.Op(42)}, {Op: isa.FX}}))
	defer func() {
		const want = "power5: core 1 thread 1: undefined op(42)"
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want panic %q", r, want)
		}
	}()
	ch.Run(100_000)
}
