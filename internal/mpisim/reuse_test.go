package mpisim_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/workload"
)

// TestRunReuseRecycledHierarchies runs a job, then a job whose memory
// phase streams over a footprint larger than the L3 (as SIESTA's does),
// then the first job again.  RunCtx recycles each run's chips (and so
// their cache hierarchies) into the next, so the second run of the first
// job starts on caches the memory phase dirtied; its result, trace and
// phase-skip coverage must equal the first run's, also when several
// goroutines recycle chips at once.
func TestRunReuseRecycledHierarchies(t *testing.T) {
	var mc mpisim.Config
	quiet(&mc)
	pl := mpisim.Placement{CPU: []int{0, 1}, Prio: []hwpri.Priority{hwpri.Medium, hwpri.Medium}}
	a := &mpisim.Job{Name: "reuse-a", Ranks: make([]mpisim.Program, 2)}
	b := &mpisim.Job{Name: "reuse-b", Ranks: make([]mpisim.Program, 2)}
	for r := range a.Ranks {
		for i := 0; i < 12; i++ {
			a.Ranks[r] = append(a.Ranks[r],
				mpisim.Compute(workload.Load{Kind: workload.L2, N: int64(3000 + 2000*r), Seed: 7}),
				mpisim.Compute(workload.Load{Kind: workload.Mem, N: 400, Seed: 9, Footprint: 4 << 20}),
				mpisim.Barrier())
		}
		b.Ranks[r] = mpisim.Program{
			mpisim.Compute(workload.Load{Kind: workload.Mem, N: 20_000, Seed: uint64(r) + 1}),
			mpisim.Barrier(),
		}
	}
	run := func(job *mpisim.Job) *mpisim.Result {
		t.Helper()
		res, err := mpisim.RunCtx(t.Context(), job, pl, mc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(a)
	if first.SkippedCycles == 0 {
		t.Fatal("phase-skip never engaged on the reference job")
	}
	run(b)
	second := run(a)
	mustIdentical(t, first, second)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("results differ after recycling:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	// Sweep workers recycle through the same pool from many goroutines.
	var wg sync.WaitGroup
	results := make([]*mpisim.Result, 3)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := mpisim.RunCtx(t.Context(), b, pl, mc); err != nil {
				t.Error(err)
				return
			}
			res, err := mpisim.RunCtx(t.Context(), a, pl, mc)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res != nil && !reflect.DeepEqual(first, res) {
			t.Errorf("concurrent run %d differs from the first run", i)
		}
	}
}
