package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpisim"
	"repro/internal/workload"
)

// ctxTestJob is a small 4-rank job for cancellation tests.
func ctxTestJob(n int64) *mpisim.Job {
	job := &mpisim.Job{Name: "ctx"}
	for r := 0; r < 4; r++ {
		job.Ranks = append(job.Ranks, mpisim.Program{
			mpisim.Compute(workload.Load{Kind: workload.FPU, N: n}),
			mpisim.Barrier(),
		})
	}
	return job
}

func TestForEachCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 100, 4, func(i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx on a cancelled context returned %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d items ran under a pre-cancelled context", ran.Load())
	}
	out, err := Map(ctx, 100, 4, func(i int) int { ran.Add(1); return i })
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("Map on a cancelled context returned (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if ran.Load() != 0 {
		t.Errorf("Map ran %d items under a pre-cancelled context", ran.Load())
	}
}

func TestForEachCtxStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachCtx(ctx, 10_000, 2, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx returned %v, want context.Canceled", err)
	}
	// In-flight items finish, but no new ones are claimed after cancel:
	// with 2 workers at most a handful more than 5 can have started.
	if got := ran.Load(); got > 10 {
		t.Errorf("%d items ran after cancellation at item 5", got)
	}
}

func TestSweepCtxCancelledReturnsPromptly(t *testing.T) {
	job := ctxTestJob(5_000_000) // big enough that a full sweep takes a while
	points, err := Enumerate(4, Space{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = SweepCtx(ctx, job, points, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepCtx on a cancelled context returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled sweep took %v to return", d)
	}
}

func TestSweepCtxProgress(t *testing.T) {
	job := ctxTestJob(2_000)
	points, err := Enumerate(4, Space{Pairings: []Pairing{{{0, 1}, {2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	last := 0
	res, err := SweepCtx(context.Background(), job, points, Options{
		Workers: 4,
		OnProgress: func(done, total int) {
			calls++
			if total != len(points) {
				t.Errorf("OnProgress total = %d, want %d", total, len(points))
			}
			if done != last+1 {
				t.Errorf("OnProgress done = %d after %d (not serialized?)", done, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(points) || res.Evaluated != len(points) {
		t.Errorf("OnProgress fired %d times for %d points (evaluated %d)", calls, len(points), res.Evaluated)
	}
}

func TestSweepCtxRunFnOverride(t *testing.T) {
	job := ctxTestJob(1_000)
	points, err := Enumerate(4, Space{Pairings: []Pairing{{{0, 1}, {2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	res, err := SweepCtx(context.Background(), job, points, Options{
		RunFn: func(ctx context.Context, _ int, job *mpisim.Job, pl mpisim.Placement, cfg mpisim.Config) (Metrics, error) {
			hits.Add(1)
			// A fake but deterministic metric: score by the first rank's CPU.
			return Metrics{Cycles: int64(pl.CPU[0] + 1), Seconds: 1, ImbalancePct: 0}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(hits.Load()) != len(points) {
		t.Errorf("RunFn called %d times for %d points", hits.Load(), len(points))
	}
	if res.MinCycles != 1 {
		t.Errorf("MinCycles = %d from the fake RunFn, want 1", res.MinCycles)
	}
}
