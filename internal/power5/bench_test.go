package power5

import (
	"testing"

	"repro/internal/workload"
)

// benchChip builds a fully-loaded chip: both cores dual-threaded with
// distinct kernel mixes, the configuration the per-cycle loop pays most
// for (every stage busy on every context).
func benchChip(tb testing.TB) *Chip {
	tb.Helper()
	ch := MustNew(DefaultConfig())
	ch.SetStream(0, 0, workload.Load{Kind: workload.Mixed, N: 1 << 62, Seed: 1}.Stream())
	ch.SetStream(0, 1, workload.Load{Kind: workload.FPU, N: 1 << 62, Seed: 2, Base: 1 << 32}.Stream())
	ch.SetStream(1, 0, workload.Load{Kind: workload.L2, N: 1 << 62, Seed: 3, Base: 2 << 32}.Stream())
	ch.SetStream(1, 1, workload.Load{Kind: workload.Branchy, Seed: 4, N: 1 << 62, Base: 3 << 32}.Stream())
	return ch
}

// idleSiblingChip builds the paper's ST placement: one rank per core,
// the sibling contexts idle.
func idleSiblingChip() *Chip {
	ch := MustNew(DefaultConfig())
	ch.SetStream(0, 0, workload.Load{Kind: workload.Mixed, N: 1 << 62, Seed: 1}.Stream())
	ch.SetStream(1, 0, workload.Load{Kind: workload.L2, N: 1 << 62, Seed: 3, Base: 2 << 32}.Stream())
	return ch
}

// TestChipCycleAllocs: the per-cycle loop is allocation-free once the
// chip is warm, on the fully-loaded chip and on the ST placement, so
// the Go GC never runs during a simulation.
func TestChipCycleAllocs(t *testing.T) {
	for name, ch := range map[string]*Chip{"full": benchChip(t), "idle-sibling": idleSiblingChip()} {
		// One measured run (after AllocsPerRun's warm-up run) counts
		// every allocation exactly; more runs would average a sparse
		// one away.
		if a := testing.AllocsPerRun(1, func() { ch.Run(20000) }); a != 0 {
			t.Errorf("%s: %v allocations in 20000 cycles, want 0", name, a)
		}
	}
}

// BenchmarkChipCycle measures the per-cycle cost of the fully-loaded
// chip — the simulator's innermost loop (TestChipCycleAllocs keeps it
// allocation-free).  Run with -cpuprofile to see the stage breakdown
// (see docs/perf.md for the recipe).
func BenchmarkChipCycle(b *testing.B) {
	ch := benchChip(b)
	b.ResetTimer()
	b.ReportAllocs()
	ch.Run(int64(b.N))
}

// BenchmarkChipCycleIdleSibling measures the same loop with one rank
// per core (the paper's ST placements): the sibling contexts never run,
// so the idle-core and idle-context fast paths should make this
// substantially cheaper than the fully-loaded cycle.
func BenchmarkChipCycleIdleSibling(b *testing.B) {
	ch := idleSiblingChip()
	b.ResetTimer()
	b.ReportAllocs()
	ch.Run(int64(b.N))
}
