package oskernel

import (
	"testing"

	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/power5"
	"repro/internal/workload"
)

func newKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	chipCfg := power5.DefaultConfig()
	chipCfg.BranchBits = 10
	return New(power5.MustNew(chipCfg), cfg)
}

func computeLoad(n int64, seed uint64) isa.Stream {
	return workload.Load{Kind: workload.FPU, N: n, Seed: seed, Base: uint64(seed) << 33}.Stream()
}

func TestSpawnAndRunToEnd(t *testing.T) {
	k := newKernel(t, Config{Patched: true})
	var ended []*Process
	k.OnProcessStreamEnd(func(p *Process) { ended = append(ended, p) })
	p, err := k.Spawn("rank0", 0, computeLoad(5000, 1), hwpri.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if p.PID != 1 || k.ProcessOn(0) != p {
		t.Error("process bookkeeping wrong")
	}
	k.Chip().RunUntil(1 << 22)
	if len(ended) != 1 || ended[0] != p {
		t.Fatalf("stream-end callback fired %d times", len(ended))
	}
	if got := k.Chip().Stats(0, 0).Completed; got != 5000 {
		t.Errorf("completed %d instructions, want 5000", got)
	}
}

func TestSpawnValidation(t *testing.T) {
	k := newKernel(t, Config{Patched: true})
	if _, err := k.Spawn("x", 99, computeLoad(10, 1), hwpri.Medium); err == nil {
		t.Error("bad CPU accepted")
	}
	if _, err := k.Spawn("x", 0, computeLoad(10, 1), hwpri.Priority(9)); err == nil {
		t.Error("bad priority accepted")
	}
	if _, err := k.Spawn("a", 0, computeLoad(10, 1), hwpri.Medium); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("b", 0, computeLoad(10, 2), hwpri.Medium); err != ErrCPUBusy {
		t.Errorf("double pin error = %v, want ErrCPUBusy", err)
	}
}

func TestExit(t *testing.T) {
	k := newKernel(t, Config{Patched: true})
	p, err := k.Spawn("x", 1, computeLoad(1<<40, 1), hwpri.Medium)
	if err != nil {
		t.Fatal(err)
	}
	k.Chip().Run(1000)
	k.Exit(p)
	if k.ProcessOn(1) != nil {
		t.Error("CPU still owned after Exit")
	}
	if _, err := k.Process(p.PID); err != ErrNoProcess {
		t.Error("process still visible after Exit")
	}
	// Idle etiquette: the CPU drops to very low priority.
	if got := k.Chip().Priority(0, 1); got != hwpri.VeryLow {
		t.Errorf("idle CPU priority = %v, want very-low", got)
	}
}

func TestCPUMapping(t *testing.T) {
	k := newKernel(t, Config{})
	if k.NumCPUs() != 4 {
		t.Fatalf("NumCPUs = %d, want 4", k.NumCPUs())
	}
	// CPU0/1 must be the two contexts of core 0 (the paper pins P1, P2
	// to the same core).
	if k.CPUOfCoreThread(0, 0) != 0 || k.CPUOfCoreThread(0, 1) != 1 || k.CPUOfCoreThread(1, 0) != 2 {
		t.Error("CPU numbering does not match the paper's mapping")
	}
}

func TestProcfsRequiresPatch(t *testing.T) {
	k := newKernel(t, Config{Patched: false})
	p, err := k.Spawn("x", 0, computeLoad(1<<40, 1), hwpri.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteHMTPriority(p.PID, hwpri.High); err != ErrNoProcFile {
		t.Errorf("vanilla kernel procfs error = %v, want ErrNoProcFile", err)
	}
}

func TestProcfsSetsPriority(t *testing.T) {
	k := newKernel(t, Config{Patched: true})
	p, err := k.Spawn("x", 2, computeLoad(1<<40, 1), hwpri.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteHMTPriority(p.PID, hwpri.High); err != nil {
		t.Fatal(err)
	}
	if got := k.Chip().Priority(1, 0); got != hwpri.High {
		t.Errorf("chip priority = %v, want high", got)
	}
	if p.HMT != hwpri.High {
		t.Error("process HMT not updated")
	}
	// Range checks: 0 and 7 are hypervisor-only, outside the procfs range.
	if err := k.WriteHMTPriority(p.PID, hwpri.ThreadOff); err != ErrBadPriority {
		t.Errorf("priority 0 error = %v, want ErrBadPriority", err)
	}
	if err := k.WriteHMTPriority(p.PID, hwpri.VeryHigh); err != ErrBadPriority {
		t.Errorf("priority 7 error = %v, want ErrBadPriority", err)
	}
	if err := k.WriteHMTPriority(999, hwpri.Low); err != ErrNoProcess {
		t.Errorf("unknown PID error = %v, want ErrNoProcess", err)
	}
}

// TestVanillaTickResetsPriority is the Section VI-A behaviour: on an
// unpatched kernel the first timer interrupt resets the context priority
// to MEDIUM and never restores it.
func TestVanillaTickResetsPriority(t *testing.T) {
	k := newKernel(t, Config{Patched: false, TickPeriod: 5000, TickCost: 100})
	// Simulate software having set priority LOW via an or-nop: spawn at
	// LOW directly.
	if _, err := k.Spawn("x", 0, computeLoad(1<<40, 1), hwpri.Low); err != nil {
		t.Fatal(err)
	}
	if got := k.Chip().Priority(0, 0); got != hwpri.Low {
		t.Fatalf("priority before tick = %v, want low", got)
	}
	k.Chip().Run(20000)
	if got := k.Chip().Priority(0, 0); got != hwpri.Medium {
		t.Errorf("priority after ticks = %v, want medium (vanilla reset)", got)
	}
}

// TestPatchedTickKeepsPriority: the patched kernel leaves priorities alone
// across interrupts (Section VI-B change #1).
func TestPatchedTickKeepsPriority(t *testing.T) {
	k := newKernel(t, Config{Patched: true, TickPeriod: 5000, TickCost: 100})
	p, err := k.Spawn("x", 0, computeLoad(1<<40, 1), hwpri.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteHMTPriority(p.PID, hwpri.High); err != nil {
		t.Fatal(err)
	}
	k.Chip().Run(20000)
	if got := k.Chip().Priority(0, 0); got != hwpri.High {
		t.Errorf("priority after ticks = %v, want high (patched keeps it)", got)
	}
}

// TestTicksCostTime: OS noise slows the process down (Section II-B).
func TestTicksCostTime(t *testing.T) {
	finish := func(cfg Config) int64 {
		k := newKernel(t, cfg)
		done := int64(-1)
		k.OnProcessStreamEnd(func(*Process) { done = k.Chip().Cycle() })
		if _, err := k.Spawn("x", 0, computeLoad(50000, 1), hwpri.Medium); err != nil {
			t.Fatal(err)
		}
		k.Chip().RunUntil(1 << 24)
		if done < 0 {
			t.Fatal("process never finished")
		}
		return done
	}
	quiet := finish(Config{Patched: true})
	noisy := finish(Config{Patched: true, TickPeriod: 2000, TickCost: 400})
	if noisy <= quiet {
		t.Errorf("ticks cost nothing: quiet %d, noisy %d cycles", quiet, noisy)
	}
}

// TestDaemonSteals: a daemon on one CPU delays only that CPU's process —
// the extrinsic imbalance of Section II-B.
func TestDaemonSteals(t *testing.T) {
	finish := func(daemons []Daemon) [2]int64 {
		chipCfg := power5.DefaultConfig()
		chipCfg.BranchBits = 10
		k := New(power5.MustNew(chipCfg), Config{Patched: true, Daemons: daemons})
		var done [2]int64
		k.OnProcessStreamEnd(func(p *Process) { done[p.CPU/2] = k.Chip().Cycle() })
		// Two identical ranks on different cores (no SMT interaction).
		if _, err := k.Spawn("a", 0, computeLoad(50000, 1), hwpri.Medium); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Spawn("b", 2, computeLoad(50000, 1), hwpri.Medium); err != nil {
			t.Fatal(err)
		}
		k.Chip().RunUntil(1 << 24)
		return done
	}
	clean := finish(nil)
	if diff := clean[0] - clean[1]; diff < -100 || diff > 100 {
		t.Fatalf("identical ranks finished %d cycles apart without noise", diff)
	}
	noisy := finish([]Daemon{{CPU: 0, Period: 3000, Run: 600}})
	if noisy[0] <= noisy[1]+1000 {
		t.Errorf("daemon-burdened CPU not delayed: %d vs %d", noisy[0], noisy[1])
	}
}

func TestOfflineCPU(t *testing.T) {
	k := newKernel(t, Config{Patched: true})
	if err := k.OfflineCPU(1); err != nil {
		t.Fatal(err)
	}
	if got := k.Chip().Priority(0, 1); got != hwpri.ThreadOff {
		t.Errorf("offlined CPU priority = %v, want thread-off", got)
	}
	// Idle sibling at priority 1 + offlined context = throttled mode;
	// ST mode is reached once a process runs on the surviving context.
	if got := k.Chip().Allocation(0).Mode; got != hwpri.ModeThrottled {
		t.Errorf("core mode with idle sibling = %v, want throttled", got)
	}
	if _, err := k.Spawn("st", 0, computeLoad(1<<40, 1), hwpri.Medium); err != nil {
		t.Fatal(err)
	}
	if got := k.Chip().Allocation(0).Mode; got != hwpri.ModeSingleThread {
		t.Errorf("core mode with running survivor = %v, want single-thread", got)
	}
	k.Exit(k.ProcessOn(0))
	if _, err := k.Spawn("x", 1, computeLoad(10, 1), hwpri.Medium); err != ErrCPUBusy {
		t.Errorf("spawn on offline CPU error = %v, want ErrCPUBusy", err)
	}
	if err := k.OnlineCPU(1); err != nil {
		t.Fatal(err)
	}
	if got := k.Chip().Priority(0, 1); got != hwpri.VeryLow {
		t.Errorf("onlined idle CPU priority = %v, want very-low", got)
	}
	if err := k.OfflineCPU(99); err == nil {
		t.Error("bad CPU accepted")
	}
	if err := k.OnlineCPU(-1); err == nil {
		t.Error("bad CPU accepted")
	}
	// Offlining a busy CPU must fail.
	if _, err := k.Spawn("x", 0, computeLoad(1<<40, 1), hwpri.Medium); err != nil {
		t.Fatal(err)
	}
	if err := k.OfflineCPU(0); err != ErrCPUBusy {
		t.Errorf("offline busy CPU error = %v, want ErrCPUBusy", err)
	}
}

// TestSetUserStream: the runtime can switch a process between phases.
func TestSetUserStream(t *testing.T) {
	k := newKernel(t, Config{Patched: true})
	phases := 0
	k.OnProcessStreamEnd(func(p *Process) {
		phases++
		if phases == 1 {
			k.SetUserStream(p, computeLoad(3000, 2))
		}
	})
	if _, err := k.Spawn("x", 0, computeLoad(2000, 1), hwpri.Medium); err != nil {
		t.Fatal(err)
	}
	k.Chip().RunUntil(1 << 22)
	if phases != 2 {
		t.Fatalf("saw %d phase ends, want 2", phases)
	}
	if got := k.Chip().Stats(0, 0).Completed; got != 5000 {
		t.Errorf("completed %d, want 5000 across both phases", got)
	}
}

// TestIdleSiblingDonatesCore: with the sibling CPU idle, a process runs
// as fast as in explicit ST mode.
func TestIdleSiblingDonatesCore(t *testing.T) {
	run := func(offline bool) int64 {
		k := newKernel(t, Config{Patched: true})
		if offline {
			if err := k.OfflineCPU(1); err != nil {
				t.Fatal(err)
			}
		}
		done := int64(-1)
		k.OnProcessStreamEnd(func(*Process) { done = k.Chip().Cycle() })
		if _, err := k.Spawn("x", 0, computeLoad(50000, 1), hwpri.Medium); err != nil {
			t.Fatal(err)
		}
		k.Chip().RunUntil(1 << 24)
		return done
	}
	idle := run(false)
	st := run(true)
	ratio := float64(idle) / float64(st)
	if ratio > 1.1 {
		t.Errorf("idle sibling costs %.0f%% vs ST mode; idle etiquette broken", (ratio-1)*100)
	}
}

// TestTickedCycleAllocs extends power5's TestChipCycleAllocs to the path
// a kernel-managed run takes: every CPU's stream is the kernel's
// preemptible wrapper, with timer ticks and a daemon firing throughout
// the measured window.  The wrapper, its tick and daemon handlers and
// the devirtualized user-stream call must stay allocation-free.
func TestTickedCycleAllocs(t *testing.T) {
	for _, patched := range []bool{true, false} {
		mach, err := power5.NewMachine(power5.DefaultTopology(), power5.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		k := NewMachine(mach, Config{Patched: patched, TickPeriod: 2000, TickCost: 400,
			Daemons: []Daemon{{CPU: 1, Period: 3000, Run: 300}}})
		for cpu, kind := range []workload.Kind{workload.Mixed, workload.FPU, workload.L2, workload.Mem} {
			l := workload.Load{Kind: kind, N: 1 << 62, Seed: uint64(cpu) + 1, Base: uint64(cpu+1) << 32}
			if _, err := k.Spawn("rank", cpu, l.Stream(), hwpri.Medium); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(1, func() { mach.Run(20000) }); a != 0 {
			t.Errorf("patched=%v: %v allocations in 20000 ticked cycles, want 0", patched, a)
		}
		if k.Chip().Cycle() < 40000 {
			t.Fatalf("patched=%v: machine went idle at cycle %d", patched, k.Chip().Cycle())
		}
	}
}
