package sweep

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpisim"
	"repro/internal/power5"
)

// benchPoints is the full 4-rank placement × user-settable-priority
// space: 3 pairings × 3^4 priority vectors = 243 simulator runs.
func benchPoints(b *testing.B) []Point {
	b.Helper()
	pts, err := Enumerate(4, Space{})
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

// BenchmarkSweepWorkers measures the full 4-rank sweep at several pool
// sizes; compare workers1 with workers4 for the parallel speedup.
func BenchmarkSweepWorkers(b *testing.B) {
	job := sweepJob(3000)
	points := benchPoints(b)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SweepCtx(b.Context(), job, points, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(points)), "configs")
		})
	}
}

// BenchmarkSweepSpeedup runs the same full sweep serially and on
// GOMAXPROCS workers within one benchmark iteration and reports the
// wall-clock ratio, on the paper's single chip and on a 2-chip node
// (where the pruned space doubles: pairs packed on one L2 versus spread
// across chips).  The sweep points are independent and share nothing,
// so the speedup must reach at least 0.7x the core count (gated; on a
// single-core machine the gate degenerates to "parallel dispatch costs
// under 30%").  The per-topology `configs` metric records how much work
// the chip/core symmetry pruning leaves.  Run it without -cpu /
// GOMAXPROCS caps, or the gate measures the cap.
func BenchmarkSweepSpeedup(b *testing.B) {
	for _, tc := range []struct {
		name string
		topo power5.Topology
	}{
		{"chips1", power5.DefaultTopology()},
		{"chips2", power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			job := sweepJob(3000)
			points, err := Enumerate(4, Space{Topology: tc.topo})
			if err != nil {
				b.Fatal(err)
			}
			cfg := mpisim.Config{Topology: tc.topo}
			// All cores: the historical hard-coded 4 silently serialized
			// the sweep on wider machines and measured nothing on narrower
			// ones.
			workers := runtime.GOMAXPROCS(0)
			var speedup float64
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				serial, err := SweepCtx(b.Context(), job, points, Options{Workers: 1, Config: cfg})
				if err != nil {
					b.Fatal(err)
				}
				tSerial := time.Since(t0)
				t0 = time.Now()
				parallel, err := SweepCtx(b.Context(), job, points, Options{Workers: workers, Config: cfg})
				if err != nil {
					b.Fatal(err)
				}
				tParallel := time.Since(t0)
				sb, _ := serial.Best()
				pb, _ := parallel.Best()
				if sb.Point.String() != pb.Point.String() {
					b.Fatal("serial and parallel sweeps disagree on the winner")
				}
				speedup = tSerial.Seconds() / tParallel.Seconds()
			}
			b.ReportMetric(speedup, "speedup-x")
			b.ReportMetric(float64(len(points)), "configs")
			b.ReportMetric(float64(workers), "gomaxprocs")
			// The pool cannot outscale the point count.
			expect := 0.7 * float64(min(workers, len(points)))
			if speedup < expect {
				b.Fatalf("sweep speedup %.2fx < 0.7x of %d cores (%d points)",
					speedup, workers, len(points))
			}
		})
	}
}
