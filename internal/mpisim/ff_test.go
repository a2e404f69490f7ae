package mpisim_test

// Differential tests for the phase-skip engine: every run is executed
// twice, once with Config.Exact (pure per-cycle execution) and once with
// the fast path armed, and the two results must be byte-identical —
// including the full interval trace.  The suite sweeps workload kinds,
// kernel-noise settings, topologies and the edge cases from the engine's
// correctness argument.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps/btmz"
	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

// quiet disables OS noise so runs settle into short limit cycles.
func quiet(cfg *mpisim.Config) {
	cfg.Kernel = oskernel.Config{Patched: true}
	cfg.KernelSet = true
}

func runBoth(t *testing.T, job *mpisim.Job, pl mpisim.Placement, cfg mpisim.Config) (*mpisim.Result, *mpisim.Result) {
	t.Helper()
	exact := cfg
	exact.Exact = true
	re, err := mpisim.RunCtx(t.Context(), job, pl, exact)
	if err != nil {
		t.Fatalf("exact run failed: %v", err)
	}
	rf, err := mpisim.RunCtx(t.Context(), job, pl, cfg)
	if err != nil {
		t.Fatalf("fast run failed: %v", err)
	}
	return re, rf
}

// mustIdentical asserts the two results are byte-identical, including
// the serialized trace.
func mustIdentical(t *testing.T, exact, fast *mpisim.Result) {
	t.Helper()
	if exact.Cycles != fast.Cycles {
		t.Fatalf("cycles diverge: exact=%d fast=%d", exact.Cycles, fast.Cycles)
	}
	if exact.Seconds != fast.Seconds {
		t.Fatalf("seconds diverge: exact=%v fast=%v", exact.Seconds, fast.Seconds)
	}
	if exact.Imbalance != fast.Imbalance {
		t.Fatalf("imbalance diverges: exact=%v fast=%v", exact.Imbalance, fast.Imbalance)
	}
	if exact.Iterations != fast.Iterations {
		t.Fatalf("iterations diverge: exact=%d fast=%d", exact.Iterations, fast.Iterations)
	}
	if !reflect.DeepEqual(exact.Ranks, fast.Ranks) {
		t.Fatalf("rank results diverge:\nexact: %+v\nfast:  %+v", exact.Ranks, fast.Ranks)
	}
	var be, bf bytes.Buffer
	if err := exact.Trace.WriteCSV(&be); err != nil {
		t.Fatal(err)
	}
	if err := fast.Trace.WriteCSV(&bf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(be.Bytes(), bf.Bytes()) {
		t.Fatalf("traces diverge (%d vs %d bytes)", be.Len(), bf.Len())
	}
}

func TestPhaseSkipBTMZCases(t *testing.T) {
	for _, noise := range []bool{false, true} {
		for _, c := range btmz.Cases() {
			name := fmt.Sprintf("%s/noise=%v", c, noise)
			t.Run(name, func(t *testing.T) {
				cfg := btmz.DefaultConfig()
				if c == btmz.CaseST {
					cfg = btmz.STConfig()
				}
				cfg.Iterations = 28
				cfg.UnitLoad = 30_000
				job := btmz.Job(cfg)
				pl, err := btmz.Placement(c)
				if err != nil {
					t.Fatal(err)
				}
				var mc mpisim.Config
				if !noise {
					quiet(&mc)
				}
				exact, fast := runBoth(t, job, pl, mc)
				mustIdentical(t, exact, fast)
				if !noise && fast.SkippedCycles == 0 {
					t.Errorf("phase-skip never engaged on the quiet %s run", c)
				}
			})
		}
	}
}

func TestPhaseSkipWorkloadKinds(t *testing.T) {
	kinds := []workload.Kind{
		workload.FPU, workload.FXU, workload.L1, workload.L2,
		workload.Mem, workload.Branchy, workload.Mixed, workload.Spin,
	}
	for _, k := range kinds {
		for _, seeded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/seeded=%v", k, seeded), func(t *testing.T) {
				job := kindJob(k, seeded, 16)
				var mc mpisim.Config
				quiet(&mc)
				exact, fast := runBoth(t, job, mpisim.DefaultPlacement(2), mc)
				mustIdentical(t, exact, fast)
				// Pseudo-random kinds with runtime-derived seeds cannot
				// legally skip; everything else should once warmed up.
				if seeded && fast.SkippedCycles == 0 {
					t.Errorf("phase-skip never engaged for seeded kind %v", k)
				}
			})
		}
	}
}

// kindJob builds a two-rank iterative job computing with the given kind.
// Spin is not a terminating compute kernel, so it is swapped for FXU
// compute with the ranks still exercising the spin wait at barriers.
func kindJob(k workload.Kind, seeded bool, iters int) *mpisim.Job {
	var seed uint64
	if seeded {
		seed = 12345
	}
	ck := k
	if ck == workload.Spin {
		ck = workload.FXU
	}
	job := &mpisim.Job{Name: fmt.Sprintf("kind-%v", k)}
	job.Ranks = make([]mpisim.Program, 2)
	for r := range job.Ranks {
		var prog mpisim.Program
		for i := 0; i < iters; i++ {
			n := int64(4000 + 3000*r)
			prog = append(prog, mpisim.Compute(workload.Load{Kind: ck, N: n, Seed: seed}))
			prog = append(prog, mpisim.Barrier())
		}
		job.Ranks[r] = prog
	}
	return job
}

func TestPhaseSkipMultiChip(t *testing.T) {
	topo := power5.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	job := &mpisim.Job{Name: "multichip"}
	job.Ranks = make([]mpisim.Program, 4)
	for r := range job.Ranks {
		var prog mpisim.Program
		for i := 0; i < 12; i++ {
			prog = append(prog,
				mpisim.Compute(workload.Load{Kind: workload.FXU, N: int64(5000 + 2000*r)}),
				mpisim.Exchange(4096, (r+1)%4, (r+3)%4),
			)
		}
		prog = append(prog, mpisim.Barrier())
		job.Ranks[r] = prog
	}
	pl := mpisim.Placement{
		CPU:  []int{0, 1, 4, 5}, // two ranks per chip
		Prio: []hwpri.Priority{hwpri.Medium, hwpri.Medium, hwpri.Medium, hwpri.Medium},
	}
	mc := mpisim.Config{Topology: topo}
	quiet(&mc)
	exact, fast := runBoth(t, job, pl, mc)
	mustIdentical(t, exact, fast)
	if fast.SkippedCycles == 0 {
		t.Error("phase-skip never engaged on the multi-chip run")
	}
}

func TestPhaseSkipZeroLengthCompute(t *testing.T) {
	// Minimal compute phases (N=1) between barriers: decision points are
	// nearly back to back.
	job := &mpisim.Job{Name: "tiny-phases"}
	job.Ranks = make([]mpisim.Program, 2)
	for r := range job.Ranks {
		var prog mpisim.Program
		for i := 0; i < 8; i++ {
			prog = append(prog,
				mpisim.Compute(workload.Load{Kind: workload.FXU, N: 1}),
				mpisim.Barrier(),
			)
		}
		job.Ranks[r] = prog
	}
	var mc mpisim.Config
	quiet(&mc)
	exact, fast := runBoth(t, job, mpisim.DefaultPlacement(2), mc)
	mustIdentical(t, exact, fast)
}

func TestPhaseSkipMaxCyclesOnFinalCycle(t *testing.T) {
	// MaxCycles exactly equal to the run's natural end must succeed in
	// both modes; one cycle less must fail identically in both.
	job := kindJob(workload.FXU, true, 4)
	var mc mpisim.Config
	quiet(&mc)
	exact, fast := runBoth(t, job, mpisim.DefaultPlacement(2), mc)
	mustIdentical(t, exact, fast)

	mc.MaxCycles = exact.Cycles
	exact2, fast2 := runBoth(t, job, mpisim.DefaultPlacement(2), mc)
	mustIdentical(t, exact2, fast2)

	mc.MaxCycles = exact.Cycles - 1
	ecfg := mc
	ecfg.Exact = true
	_, errExact := mpisim.RunCtx(t.Context(), job, mpisim.DefaultPlacement(2), ecfg)
	_, errFast := mpisim.RunCtx(t.Context(), job, mpisim.DefaultPlacement(2), mc)
	if errExact == nil || errFast == nil {
		t.Fatalf("expected MaxCycles errors, got exact=%v fast=%v", errExact, errFast)
	}
	if errExact.Error() != errFast.Error() {
		t.Fatalf("error divergence:\nexact: %v\nfast:  %v", errExact, errFast)
	}
}

func TestPhaseSkipLoadDriftForcesExact(t *testing.T) {
	// A LoadDrift hook disables the engine; the run must both succeed and
	// report zero skipped cycles.
	job := kindJob(workload.FXU, true, 4)
	var mc mpisim.Config
	quiet(&mc)
	mc.LoadDrift = func(rank, idx int, l workload.Load) workload.Load { return l }
	res, err := mpisim.RunCtx(t.Context(), job, mpisim.DefaultPlacement(2), mc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedCycles != 0 {
		t.Fatalf("engine engaged (%d skipped cycles) despite LoadDrift hook", res.SkippedCycles)
	}
	// An identity drift must reproduce the no-drift run exactly.
	var plain mpisim.Config
	quiet(&plain)
	plain.Exact = true
	ref, err := mpisim.RunCtx(t.Context(), job, mpisim.DefaultPlacement(2), plain)
	if err != nil {
		t.Fatal(err)
	}
	mustIdentical(t, ref, res)
}

// countdownCtx reports cancellation after its Err method has been
// consulted n times, simulating a deadline landing mid-run without
// depending on wall-clock time.
type countdownCtx struct {
	context.Context
	left int
}

var errCountdown = errors.New("countdown expired")

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return errCountdown
	}
	c.left--
	return nil
}

func TestPhaseSkipCancellationMidRun(t *testing.T) {
	// Cancellation is observed between scheduling quanta even when the
	// engine is skipping: the ≤1M-cycle quantum bound of RunCtx holds.
	job := kindJob(workload.FXU, true, 64)
	var mc mpisim.Config
	quiet(&mc)
	ctx := &countdownCtx{Context: context.Background(), left: 3}
	_, err := mpisim.RunCtx(ctx, job, mpisim.DefaultPlacement(2), mc)
	if !errors.Is(err, errCountdown) {
		t.Fatalf("expected cancellation error, got %v", err)
	}
}

func TestPhaseSkipExactFlagDisables(t *testing.T) {
	job := kindJob(workload.FXU, true, 6)
	var mc mpisim.Config
	quiet(&mc)
	mc.Exact = true
	res, err := mpisim.RunCtx(t.Context(), job, mpisim.DefaultPlacement(2), mc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedCycles != 0 {
		t.Fatalf("Exact run reported %d skipped cycles", res.SkippedCycles)
	}
}
