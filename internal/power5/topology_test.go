package power5

import (
	"testing"

	"repro/internal/workload"
)

func TestTopologyMath(t *testing.T) {
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	if topo.Cores() != 4 || topo.Contexts() != 8 {
		t.Fatalf("Cores/Contexts = %d/%d, want 4/8", topo.Cores(), topo.Contexts())
	}
	for cpu := 0; cpu < topo.Contexts(); cpu++ {
		chip, core, ctx := topo.Locate(cpu)
		back, err := topo.CPUOf(chip, core, ctx)
		if err != nil {
			t.Fatalf("CPUOf(%d,%d,%d): %v", chip, core, ctx, err)
		}
		if back != cpu {
			t.Errorf("CPU %d round-trips to %d", cpu, back)
		}
		if topo.CoreOf(cpu) != chip*topo.CoresPerChip+core {
			t.Errorf("CoreOf(%d) = %d, want %d", cpu, topo.CoreOf(cpu), chip*topo.CoresPerChip+core)
		}
		if topo.ChipOf(cpu) != chip {
			t.Errorf("ChipOf(%d) = %d, want %d", cpu, topo.ChipOf(cpu), chip)
		}
		sib := topo.SiblingCPU(cpu)
		if topo.CoreOf(sib) != topo.CoreOf(cpu) || sib == cpu {
			t.Errorf("SiblingCPU(%d) = %d not a distinct same-core context", cpu, sib)
		}
	}
	if _, err := topo.CPUOf(2, 0, 0); err == nil {
		t.Error("CPUOf accepted out-of-range chip")
	}
	if _, err := topo.CPUOf(0, 2, 0); err == nil {
		t.Error("CPUOf accepted out-of-range core")
	}
	if _, err := topo.CPUOf(0, 0, 2); err == nil {
		t.Error("CPUOf accepted out-of-range context")
	}
}

func TestParseTopology(t *testing.T) {
	good := map[string]Topology{
		"1x2x2":       {1, 2, 2},
		"2x2x2":       {2, 2, 2},
		" 4 x 8 x 2 ": {4, 8, 2},
		"2X2X2":       {2, 2, 2},
	}
	for s, want := range good {
		got, err := ParseTopology(s)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseTopology(%q) = %v, want %v", s, got, want)
		}
		if rt, err := ParseTopology(got.String()); err != nil || rt != got {
			t.Errorf("round trip of %q via %q failed: %v %v", s, got.String(), rt, err)
		}
	}
	for _, s := range []string{"", "2x2", "2x2x2x2", "axbxc", "0x2x2", "2x0x2", "2x2x4", "65x2x2", "2x65x2", "-1x2x2"} {
		if _, err := ParseTopology(s); err == nil {
			t.Errorf("ParseTopology(%q) accepted invalid topology", s)
		}
	}
}

func TestDefaultTopologyMatchesDefaultConfig(t *testing.T) {
	topo, cfg := DefaultTopology(), DefaultConfig()
	if topo.CoresPerChip != cfg.Cores || topo.SMTWays != cfg.ThreadsPerCore || topo.Chips != 1 {
		t.Fatalf("DefaultTopology %v does not describe DefaultConfig (%d cores, %d-way)",
			topo, cfg.Cores, cfg.ThreadsPerCore)
	}
}

// TestSingleChipMachineMatchesChip asserts the 1-chip Machine is cycle-
// and counter-identical to driving the Chip directly — the guarantee
// that keeps the paper's tables byte-identical under the refactor.
func TestSingleChipMachineMatchesChip(t *testing.T) {
	load := func(seed uint64, base uint64) workload.Load {
		return workload.Load{Kind: workload.Mixed, N: 1 << 62, Seed: seed, Base: base}
	}
	direct := MustNew(DefaultConfig())
	direct.SetStream(0, 0, load(1, 0).Stream())
	direct.SetStream(1, 1, load(2, 1<<32).Stream())
	direct.RunUntil(50_000)

	m, err := NewMachine(DefaultTopology(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.SetStream(0, 0, load(1, 0).Stream())
	m.SetStream(1, 1, load(2, 1<<32).Stream())
	m.RunUntil(50_000)

	if m.Cycle() != direct.Cycle() {
		t.Fatalf("machine cycle %d != chip cycle %d", m.Cycle(), direct.Cycle())
	}
	for core := 0; core < 2; core++ {
		for thr := 0; thr < 2; thr++ {
			if got, want := m.Stats(core, thr), direct.Stats(core, thr); got != want {
				t.Errorf("stats(%d,%d) = %+v, want %+v", core, thr, got, want)
			}
		}
	}
}

// TestMachineLockstep runs two chips with identical streams and asserts
// they progress identically: the chips are independent (own L2/L3), so
// mirrored inputs must give mirrored counters.
func TestMachineLockstep(t *testing.T) {
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	m, err := NewMachine(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for chip := 0; chip < 2; chip++ {
		base := chip * topo.CoresPerChip
		m.SetStream(base+0, 0, workload.Load{Kind: workload.FPU, N: 20_000, Seed: 9, Base: 5 << 32}.Stream())
		m.SetStream(base+1, 1, workload.Load{Kind: workload.L2, N: 20_000, Seed: 7, Base: 6 << 32}.Stream())
	}
	m.RunUntil(200_000)
	if !m.AllIdle() {
		t.Fatal("machine did not drain both chips")
	}
	for core := 0; core < topo.CoresPerChip; core++ {
		for thr := 0; thr < 2; thr++ {
			a, b := m.Stats(core, thr), m.Stats(topo.CoresPerChip+core, thr)
			if a != b {
				t.Errorf("chips diverged at (core %d, thr %d): %+v vs %+v", core, thr, a, b)
			}
		}
	}
	if m.Chip(0) == m.Chip(1) {
		t.Fatal("chips share state")
	}
	if m.Hierarchy(0) == m.Hierarchy(1) {
		t.Fatal("chips share a memory hierarchy")
	}
}

// TestMachineHierarchyIsolation asserts per-chip L2s: traffic on chip 0
// never allocates into chip 1's hierarchy.
func TestMachineHierarchyIsolation(t *testing.T) {
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	m, err := NewMachine(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 1<<16; off += 128 {
		m.TouchMemory(0, off)
	}
	if got := m.Hierarchy(0).L2().Stats().Misses; got == 0 {
		t.Fatal("chip 0 L2 saw no traffic")
	}
	if got := m.Hierarchy(1).L2().Stats().Accesses; got != 0 {
		t.Fatalf("chip 1 L2 saw %d accesses from chip 0 traffic", got)
	}
}

func TestMachineOnEmptyGlobalCores(t *testing.T) {
	topo := Topology{Chips: 2, CoresPerChip: 1, SMTWays: 2}
	m, err := NewMachine(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var emptied []int
	m.OnEmpty(func(core, thread int) { emptied = append(emptied, core*2+thread) })
	m.SetStream(0, 0, workload.Load{Kind: workload.FXU, N: 500, Seed: 1}.Stream())
	m.SetStream(1, 1, workload.Load{Kind: workload.FXU, N: 500, Seed: 2, Base: 1 << 32}.Stream())
	m.RunUntil(1 << 20)
	want := map[int]bool{0: true, 3: true}
	if len(emptied) != 2 || !want[emptied[0]] || !want[emptied[1]] {
		t.Fatalf("OnEmpty fired for CPUs %v, want {0, 3}", emptied)
	}
}

// TestMachineReleasePanicsOnStep checks that a released machine cannot
// be driven: its chips gave their hierarchies back, so any later Step —
// direct or through Run — panics instead of touching recycled caches.
func TestMachineReleasePanicsOnStep(t *testing.T) {
	for name, step := range map[string]func(*Machine){
		"Chip.Step":   func(m *Machine) { m.Chip(1).Step() },
		"Machine.Run": func(m *Machine) { m.Run(1) },
	} {
		t.Run(name, func(t *testing.T) {
			m, err := NewMachine(Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			m.SetStream(0, 0, workload.NewGen(workload.Load{Kind: workload.L2, N: 1000}))
			m.Run(100)
			m.Release()
			defer func() {
				if recover() == nil {
					t.Error("stepping a released machine did not panic")
				}
			}()
			step(m)
		})
	}
}
