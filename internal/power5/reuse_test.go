package power5

import (
	"reflect"
	"testing"

	"repro/internal/hwpri"
	"repro/internal/mem"
	"repro/internal/workload"
)

// chipProbe is everything observable about a chip without perturbing
// it: the phase-skip norm and counters (pipeline rings, completion
// times, predictor, MSHRs, caches), the clock, every context's
// priority, privilege, stream and counters, and the cache statistics.
type chipProbe struct {
	cycle        int64
	idle, halted bool
	norm         []byte
	ctrs         []int64
	prio         []hwpri.Priority
	priv         []hwpri.Privilege
	running      []bool
	stats        []ContextStats
	alloc        []hwpri.Allocation
	caches       []mem.Stats
	hasOnEmpty   bool
}

func probeChip(t *testing.T, ch *Chip) chipProbe {
	t.Helper()
	norm, ok := ch.FFNorm(nil)
	if !ok {
		t.Fatal("chip norm unavailable")
	}
	p := chipProbe{
		cycle: ch.Cycle(), idle: ch.AllIdle(), halted: ch.Halted(),
		norm: norm, ctrs: ch.FFCtrs(nil), hasOnEmpty: ch.onEmpty != nil,
	}
	h := ch.Hierarchy()
	p.caches = append(p.caches, h.L2().Stats(), h.L3().Stats())
	for c := range ch.cores {
		p.alloc = append(p.alloc, ch.Allocation(c))
		p.caches = append(p.caches, h.L1(c).Stats())
		for th := 0; th < 2; th++ {
			p.prio = append(p.prio, ch.Priority(c, th))
			p.priv = append(p.priv, ch.cores[c].ctx[th].priv)
			p.running = append(p.running, ch.Running(c, th))
			p.stats = append(p.stats, ch.Stats(c, th))
		}
	}
	return p
}

// dirtyLoads fill every part of a chip: a memory kernel streaming over
// twice the L3 (live MSHRs), a branchy kernel (touched predictor words),
// and two more kernels keeping both cores' windows full.
func dirtyLoads(core int) [2]workload.Load {
	base := uint64(core+1) << 36
	if core%2 == 0 {
		return [2]workload.Load{
			{Kind: workload.Mem, N: 1 << 40, Seed: 1, Base: base, Footprint: 64 << 20},
			{Kind: workload.Branchy, N: 1 << 40, Seed: 2, Base: base | 1<<32},
		}
	}
	return [2]workload.Load{
		{Kind: workload.L2, N: 1 << 40, Seed: 3, Base: base},
		{Kind: workload.Mixed, N: 1 << 40, Seed: 4, Base: base | 1<<32},
	}
}

// load installs loads(core) as the streams of every context of m.
func load(m *Machine, loads func(core int) [2]workload.Load) {
	for c := 0; c < m.Topology().Cores(); c++ {
		for th, l := range loads(c) {
			m.SetStream(c, th, l.Stream())
		}
	}
}

// TestMachineReleaseReuse stops a two-chip machine mid-flight — window
// entries in flight, MSHRs live, predictor words touched, priorities,
// privileges and an OnEmpty handler set — and releases it.  Every
// released chip must be indistinguishable from a new one, and a machine
// built on the recycled chips must then behave cycle for cycle as a new
// machine does under the same streams.
func TestMachineReleaseReuse(t *testing.T) {
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	cfg := DefaultConfig()
	m, err := NewMachine(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	load(m, dirtyLoads)
	m.SetPriority(1, 1, hwpri.High)
	m.SetPrivilege(2, 0, hwpri.Supervisor)
	m.OnEmpty(func(int, int) {})
	m.Run(60_000)

	released := append([]*Chip(nil), m.chips...)
	co := released[0].cores[0]
	live := 0
	for _, d := range co.mshr {
		if d > released[0].cycle {
			live++
		}
	}
	if live == 0 || released[0].InFlight(0, 0) == 0 || len(co.bp.FFNorm(nil)) <= 12 {
		t.Fatalf("machine not dirty at release: %d live MSHRs, %d in flight, %d-byte predictor norm",
			live, released[0].InFlight(0, 0), len(co.bp.FFNorm(nil)))
	}
	m.Release()

	DropChipPools()
	fresh, err := NewMachine(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range released {
		ch.released = false // probe it as New would hand it out
		if a, b := probeChip(t, ch), probeChip(t, fresh.chips[i]); !reflect.DeepEqual(a, b) {
			t.Fatalf("released chip %d differs from a new one:\nreleased: %+v\nnew:      %+v", i, a, b)
		}
		ch.released = true
	}

	// DropChipPools dropped the released chips too: hand them back.
	for _, ch := range released {
		ch.release()
	}
	got, err := NewMachine(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recycled := 0
	for _, ch := range got.chips {
		for _, r := range released {
			if ch == r {
				recycled++
			}
		}
	}
	t.Logf("%d of %d chips recycled", recycled, len(got.chips))
	load(got, dirtyLoads)
	load(fresh, dirtyLoads)
	for step := 0; step < 20; step++ {
		got.Run(997)
		fresh.Run(997)
		for i := range got.chips {
			if a, b := probeChip(t, got.chips[i]), probeChip(t, fresh.chips[i]); !reflect.DeepEqual(a, b) {
				t.Fatalf("cycle %d: recycled chip %d diverges from a new one", got.Cycle(), i)
			}
		}
	}
}

// TestMachineReleaseKeepsConfigsApart releases machines of several chip
// configurations and checks that each configuration gets back only a
// chip of its own.
func TestMachineReleaseKeepsConfigsApart(t *testing.T) {
	small := DefaultConfig()
	small.BranchBits = 10
	window := DefaultConfig()
	window.WindowSize = 60
	cases := []struct {
		topo Topology
		cfg  Config
	}{
		{Topology{Chips: 1, CoresPerChip: 1, SMTWays: 2}, DefaultConfig()},
		{DefaultTopology(), DefaultConfig()},
		{DefaultTopology(), small},
		{DefaultTopology(), window},
	}
	for _, c := range cases {
		m, err := NewMachine(c.topo, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	for i := len(cases) - 1; i >= 0; i-- {
		c := cases[i]
		m, err := NewMachine(c.topo, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch := m.Chip(0)
		got := ch.Config()
		if len(ch.cores) != c.topo.CoresPerChip || got.BranchBits != c.cfg.BranchBits ||
			got.WindowSize != c.cfg.WindowSize || len(ch.cores[0].ctx[0].ring) != c.cfg.WindowSize+1 {
			t.Fatalf("case %d: got a chip of %d cores, %d branch bits, window %d (%d ring slots), want %d, %d, %d",
				i, len(ch.cores), got.BranchBits, got.WindowSize, len(ch.cores[0].ctx[0].ring),
				c.topo.CoresPerChip, c.cfg.BranchBits, c.cfg.WindowSize)
		}
	}
}
