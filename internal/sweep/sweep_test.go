package sweep

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/workload"
)

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		hits := make([]int32, n)
		if err := ForEachCtx(t.Context(), n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
	ForEachCtx(t.Context(), 0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	ForEachCtx(t.Context(), 16, 4, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	fn := func(i int) int { return i * i }
	want, err := Map(t.Context(), 40, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 5, 16} {
		if got, err := Map(t.Context(), 40, w, fn); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %v != %v (err %v)", w, got, want, err)
		}
	}
}

func TestPairingsCounts(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{2, 1}, {4, 3}, {6, 15}} {
		if got := len(Pairings(tc.n)); got != tc.want {
			t.Errorf("Pairings(%d): %d pairings, want %d", tc.n, got, tc.want)
		}
	}
	if Pairings(3) != nil || Pairings(0) != nil {
		t.Error("odd or zero n must yield no pairings")
	}
	want := []string{"0+1|2+3", "0+2|1+3", "0+3|1+2"}
	for i, p := range Pairings(4) {
		if p.String() != want[i] {
			t.Errorf("Pairings(4)[%d] = %s, want %s", i, p, want[i])
		}
	}
}

func TestPairingPlacement(t *testing.T) {
	p := Pairing{{0, 3}, {1, 2}}
	pl := p.Placement([]hwpri.Priority{6, 4, 4, 2})
	wantCPU := []int{0, 2, 3, 1}
	if !reflect.DeepEqual(pl.CPU, wantCPU) {
		t.Errorf("CPU = %v, want %v", pl.CPU, wantCPU)
	}
}

func TestEnumerateCountsAndOrder(t *testing.T) {
	pts, err := Enumerate(4, Space{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*81 {
		t.Fatalf("default 4-rank space has %d points, want 243", len(pts))
	}
	// Last rank varies fastest within a pairing.
	if pts[0].Prio[3] == pts[1].Prio[3] {
		t.Errorf("odometer not advancing the last rank first: %v then %v", pts[0], pts[1])
	}
	// Restricting the pairing divides the space by 3.
	pts, err = Enumerate(4, Space{Pairings: []Pairing{{{0, 1}, {2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 81 {
		t.Fatalf("fixed-pairing space has %d points, want 81", len(pts))
	}
	// A two-priority alphabet over 4 ranks: 3 * 2^4.
	pts, err = Enumerate(4, Space{Alphabet: []hwpri.Priority{hwpri.Medium, hwpri.High}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 48 {
		t.Fatalf("two-letter space has %d points, want 48", len(pts))
	}
}

func TestEnumerateRejectsBadInput(t *testing.T) {
	if _, err := Enumerate(3, Space{}); err == nil {
		t.Error("odd rank count accepted")
	}
	if _, err := Enumerate(4, Space{Alphabet: []hwpri.Priority{hwpri.VeryHigh}}); err == nil {
		t.Error("priority 7 accepted")
	}
	if _, err := Enumerate(4, Space{Alphabet: []hwpri.Priority{hwpri.Medium, hwpri.Medium}}); err == nil {
		t.Error("duplicate alphabet entry accepted")
	}
	for _, bad := range []Pairing{
		{{1, 0}, {2, 3}}, // pair not sorted
		{{2, 3}, {0, 1}}, // pairs not ordered
		{{0, 1}, {1, 3}}, // repeated rank
		{{0, 1}},         // wrong size
	} {
		if _, err := Enumerate(4, Space{Pairings: []Pairing{bad}}); err == nil {
			t.Errorf("non-canonical pairing %v accepted", bad)
		}
	}
}

func TestObjectiveScores(t *testing.T) {
	m := Metrics{Cycles: 200, ImbalancePct: 50}
	if s := MinCycles().Score(m, 100); s != 2 {
		t.Errorf("MinCycles score = %v, want 2", s)
	}
	if s := MinImbalance().Score(m, 100); s != 0.5 {
		t.Errorf("MinImbalance score = %v, want 0.5", s)
	}
	if s := Weighted(1, 1).Score(m, 100); s != 2.5 {
		t.Errorf("Weighted score = %v, want 2.5", s)
	}
	custom := Objective{Fn: func(m Metrics, _ int64) float64 { return float64(m.Cycles) + 1 }}
	if s := custom.Score(m, 100); s != 201 {
		t.Errorf("custom score = %v, want 201", s)
	}
	if (Objective{}).normalize().Label != "cycles" {
		t.Error("zero objective must normalize to MinCycles")
	}
}

// sweepJob is a small imbalanced 4-rank job: two light ranks, two heavy.
func sweepJob(load int64) *mpisim.Job {
	job := &mpisim.Job{Name: "sweep-test"}
	for r := 0; r < 4; r++ {
		n := load
		if r%2 == 1 {
			n = 4 * load
		}
		job.Ranks = append(job.Ranks, mpisim.Program{
			mpisim.Compute(workload.Load{Kind: workload.FPU, N: n}),
			mpisim.Barrier(),
		})
	}
	return job
}

// testSpace is small enough for -race yet non-trivial: all 3 pairings
// with a two-letter alphabet (48 configurations).
func testSpace() Space {
	return Space{Alphabet: []hwpri.Priority{hwpri.Medium, hwpri.High}}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	job := sweepJob(4000)
	points, err := Enumerate(4, testSpace())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := SweepCtx(t.Context(), job, points, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par, err := SweepCtx(t.Context(), job, points, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d ranking differs from serial:\nserial best %+v\nparallel best %+v",
				w, serial.Ranked[0], par.Ranked[0])
		}
	}
	if serial.Failed != 0 {
		t.Errorf("%d runs failed", serial.Failed)
	}
	if serial.Evaluated != len(points) {
		t.Errorf("evaluated %d, want %d", serial.Evaluated, len(points))
	}
}

func TestSweepFindsBalancingConfiguration(t *testing.T) {
	job := sweepJob(6000)
	points, err := Enumerate(len(job.Ranks), testSpace())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepCtx(t.Context(), job, points, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	// The reference configuration: in-order pairing, all priorities 4.
	var ref RunResult
	found := false
	for _, rr := range res.Ranked {
		if rr.Point.String() == "0+1|2+3 @ 4,4,4,4" {
			ref, found = rr, true
		}
	}
	if !found {
		t.Fatal("reference configuration missing from the space")
	}
	if best.Metrics.Cycles >= ref.Metrics.Cycles {
		t.Errorf("best configuration %v (%d cycles) no faster than reference (%d cycles)",
			best.Point, best.Metrics.Cycles, ref.Metrics.Cycles)
	}
	// The winner must favor heavy ranks: each core's heavy rank at
	// priority >= its light sibling (heavy ranks are the odd ones).
	for _, pair := range best.Point.Pairing {
		a, b := pair[0], pair[1]
		pa, pb := best.Point.Prio[a], best.Point.Prio[b]
		heavyA := a%2 == 1
		heavyB := b%2 == 1
		if heavyA && !heavyB && pa < pb {
			t.Errorf("winner %v penalizes heavy rank %d", best.Point, a)
		}
		if heavyB && !heavyA && pb < pa {
			t.Errorf("winner %v penalizes heavy rank %d", best.Point, b)
		}
	}
}

func TestSweepObjectiveChangesRanking(t *testing.T) {
	job := sweepJob(4000)
	points, err := Enumerate(4, testSpace())
	if err != nil {
		t.Fatal(err)
	}
	byCycles, err := SweepCtx(t.Context(), job, points, Options{Objective: MinCycles()})
	if err != nil {
		t.Fatal(err)
	}
	byImb, err := SweepCtx(t.Context(), job, points, Options{Objective: MinImbalance()})
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := byCycles.Best()
	bi, _ := byImb.Best()
	if bi.Metrics.ImbalancePct > bc.Metrics.ImbalancePct {
		t.Errorf("imbalance objective picked a more imbalanced winner (%.2f%%) than the cycles objective (%.2f%%)",
			bi.Metrics.ImbalancePct, bc.Metrics.ImbalancePct)
	}
}

func TestSweepTopTruncates(t *testing.T) {
	job := sweepJob(3000)
	points, err := Enumerate(4, Space{Pairings: []Pairing{{{0, 1}, {2, 3}}},
		Alphabet: []hwpri.Priority{hwpri.Medium, hwpri.High}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepCtx(t.Context(), job, points, Options{Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 5 {
		t.Errorf("got %d ranked entries, want 5", len(res.Ranked))
	}
	if res.Evaluated != len(points) {
		t.Errorf("Evaluated = %d, want %d", res.Evaluated, len(points))
	}
}

func TestSweepRecordsFailures(t *testing.T) {
	job := sweepJob(5000)
	points, err := Enumerate(4, testSpace())
	if err != nil {
		t.Fatal(err)
	}
	// A 1-cycle budget starves every run.
	res, err := SweepCtx(t.Context(), job, points, Options{Config: mpisim.Config{MaxCycles: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != len(points) {
		t.Errorf("Failed = %d, want %d", res.Failed, len(points))
	}
	if res.FirstErr == nil {
		t.Error("FirstErr not recorded")
	}
	if _, err := res.Best(); err == nil {
		t.Error("Best succeeded on an all-failed sweep")
	}
	// Truncation must not erase the failure record.
	res, err = SweepCtx(t.Context(), job, points, Options{Top: 1, Config: mpisim.Config{MaxCycles: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != len(points) || res.FirstErr == nil {
		t.Errorf("Top truncation lost the failure record: Failed=%d FirstErr=%v", res.Failed, res.FirstErr)
	}
}

func TestSweepRejectsBadOptions(t *testing.T) {
	job := sweepJob(1000)
	if _, err := SweepCtx(t.Context(), job, nil, Options{}); err == nil {
		t.Error("empty space accepted")
	}
	cfg := mpisim.Config{OnIteration: func(mpisim.IterationEvent) {}}
	points, _ := Enumerate(4, testSpace())
	if _, err := SweepCtx(t.Context(), job, points, Options{Config: cfg}); err == nil {
		t.Error("OnIteration accepted")
	}
}
