package smtbalance

import (
	"context"
	"runtime"
	"testing"
)

// allocShape is one job shape of TestRunAllocs, modelled on perfbench's
// inputs: search's ring job on a two-chip node without OS ticks, and
// the three paper shapes (MetBench, BT-MZ, SIESTA) at their paper-run
// scales in the default environment.
type allocShape struct {
	name string
	opts *Options
	job  Job
	pl   Placement
}

func ring4(r int) []int { return []int{(r + 3) % 4, (r + 1) % 4} }

func allocShapes() []allocShape {
	var ring, met, bt, siesta Job
	for r := 0; r < 4; r++ {
		var p []Phase
		for i := 0; i < 12; i++ {
			p = append(p, Compute("fpu", int64(4000*[4]float64{0.18, 0.24, 0.67, 1}[r])), Exchange(4<<10, ring4(r)...), Barrier())
		}
		ring.Ranks = append(ring.Ranks, p)

		p = nil
		for i := 0; i < 3; i++ {
			p = append(p, Compute("fpu", int64(0.8*[4]float64{40_000, 180_000, 40_000, 180_000}[r])), Barrier())
		}
		met.Ranks = append(met.Ranks, p)

		p = nil
		for i := 0; i < 2; i++ {
			p = append(p, Compute("fpu", int64(1.05*220_000*[4]float64{0.18, 0.24, 0.67, 1}[r])), Exchange(16<<10, ring4(r)...))
		}
		bt.Ranks = append(bt.Ranks, append(p, Barrier()))

		p = nil
		for i := 0; i < 3; i++ {
			w := 0.42 * [4]float64{0.80, 0.74, 0.82, 0.97}[r]
			if r == [3]int{3, 0, 3}[i] {
				w *= 1.55
			}
			p = append(p, Compute("branchy", int64(82_000*w)), Compute("mem", int64(1_700*w)), Exchange(8<<10, ring4(r)...), Barrier())
		}
		siesta.Ranks = append(siesta.Ranks, p)
	}
	node := &Options{Topology: Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}, NoOSNoise: true}
	return []allocShape{
		{"ring-2x2x2", node, ring, Placement{CPU: []int{0, 1, 4, 5}, Priority: []Priority{PriorityMedium, PriorityMedium, PriorityMedium, PriorityMedium}}},
		{"metbench", nil, met, PinInOrder(4)},
		{"bt-mz", nil, bt, PinInOrder(4)},
		{"siesta", nil, siesta, PinInOrder(4)},
	}
}

// TestRunAllocs: once a first run has warmed the recycled chips and
// phase-skip buffers, a cold Machine.Run (a new Machine, so the result
// cache cannot answer) allocates little beyond its Result, whatever the
// machine's cache and predictor sizes.  Rebuilding the chips, their
// predictor tables or a full-table predictor norm per anchor costs
// 350–3,800 KiB per run.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled chips at random")
	}
	const limit = 128 << 10
	for _, s := range allocShapes() {
		run := func() {
			m, err := NewMachine(s.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(context.Background(), s.job, s.pl); err != nil {
				t.Fatal(err)
			}
		}
		run()
		// The fewest bytes of three runs: the counter is process-wide,
		// so a goroutine left over from an earlier test can only add.
		var b uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < b {
				b = d
			}
		}
		t.Logf("%s: %d KiB per run", s.name, b>>10)
		if b > limit {
			t.Errorf("%s: a warm Machine.Run allocated %d KiB, want at most %d KiB", s.name, b>>10, limit>>10)
		}
	}
}
