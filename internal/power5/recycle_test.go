package power5_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

// cancelAfter is a context whose Err turns to Canceled at its n-th call:
// mpisim.RunCtx checks Err once per scheduling quantum, so the run stops
// at a reproducible cycle with its pipelines in flight.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

func ringPeers(r, n int) []int { return []int{(r + n - 1) % n, (r + 1) % n} }

// iterJob is an iterative 4-rank job of the given kernels with a ring
// exchange and a barrier per iteration; phase-skip engages on it.
func iterJob(name string, iters int, kinds [4]workload.Kind, n [4]int64) *mpisim.Job {
	job := &mpisim.Job{Name: name, Ranks: make([]mpisim.Program, 4)}
	for r := range job.Ranks {
		for i := 0; i < iters; i++ {
			job.Ranks[r] = append(job.Ranks[r],
				mpisim.Compute(workload.Load{Kind: kinds[r], N: n[r], Seed: uint64(r) + 1}),
				mpisim.Exchange(4<<10, ringPeers(r, 4)...),
				mpisim.Barrier())
		}
	}
	return job
}

// TestRecycledChipRunMatchesCold runs a job A whose chips are then
// recycled, and a job B on the recycled chips: B's result and trace CSV
// must be byte-identical to B run on chips built afresh.  A ends three
// ways: as a different job on the same machine shape, on a different
// topology whose chips share B's configuration, and cancelled mid-flight
// with memory misses outstanding, predictor words touched and window
// entries in flight.
func TestRecycledChipRunMatchesCold(t *testing.T) {
	quiet := mpisim.Config{Kernel: oskernel.Config{Patched: true}, KernelSet: true}
	pl := mpisim.Placement{CPU: []int{0, 1, 2, 3}, Prio: []hwpri.Priority{hwpri.Medium, hwpri.High, hwpri.Medium, hwpri.MediumLow}}
	b := iterJob("b", 10, [4]workload.Kind{workload.FPU, workload.Branchy, workload.L2, workload.FPU}, [4]int64{3000, 5000, 4000, 6000})
	run := func(ctx context.Context, job *mpisim.Job, pl mpisim.Placement, cfg mpisim.Config) (*mpisim.Result, []byte, error) {
		res, err := mpisim.RunCtx(ctx, job, pl, cfg)
		if err != nil {
			return nil, nil, err
		}
		var csv bytes.Buffer
		if err := res.Trace.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return res, csv.Bytes(), nil
	}

	power5.DropChipPools()
	want, wantCSV, err := run(t.Context(), b, pl, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if want.SkippedCycles == 0 {
		t.Fatal("phase-skip never engaged on job B")
	}

	node := quiet
	node.Topology = power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	heavy := iterJob("a-heavy", 4, [4]workload.Kind{workload.Mem, workload.Branchy, workload.Mixed, workload.Mem}, [4]int64{40_000, 200_000, 200_000, 40_000})
	for _, c := range []struct {
		name   string
		ctx    context.Context
		job    *mpisim.Job
		pl     mpisim.Placement
		cfg    mpisim.Config
		cancel bool
	}{
		{"different-job", t.Context(), heavy, pl, quiet, false},
		{"different-topology", t.Context(), heavy, mpisim.Placement{CPU: []int{0, 3, 4, 7}, Prio: pl.Prio}, node, false},
		{"cancelled", &cancelAfter{t.Context(), 3}, heavy, pl, quiet, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			power5.DropChipPools()
			if _, _, err := run(c.ctx, c.job, c.pl, c.cfg); (err != nil) != c.cancel || c.cancel && !errors.Is(err, context.Canceled) {
				t.Fatalf("job A: err = %v, want cancelled %v", err, c.cancel)
			}
			got, gotCSV, err := run(t.Context(), b, pl, quiet)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("job B on recycled chips differs from job B on new chips:\nrecycled: %+v\nnew:      %+v", got, want)
			}
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Error("job B's trace CSV on recycled chips differs from the one on new chips")
			}
		})
	}
}
