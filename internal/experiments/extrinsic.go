package experiments

import (
	"context"
	"fmt"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

// ExtrinsicResult quantifies Section II-B: even a perfectly balanced
// application becomes imbalanced when external factors (OS noise, user
// daemons) steal CPU from some ranks but not others — and the paper's
// priority mechanism can compensate without touching the application.
type ExtrinsicResult struct {
	// CleanSeconds / CleanImbalance: balanced app, no noise.
	CleanSeconds   float64
	CleanImbalance float64
	// NoisySeconds / NoisyImbalance: a daemon pinned to rank 0's CPU.
	NoisySeconds   float64
	NoisyImbalance float64
	// CompensatedSeconds / CompensatedImbalance: same noise, but the
	// victim rank is favored by one priority step.
	CompensatedSeconds   float64
	CompensatedImbalance float64
}

// ExtrinsicNoise runs the experiment: four identical ranks, a statistics
// daemon bound to CPU 0 (the "user daemons" source of Section II-B),
// and the priority compensation.
func ExtrinsicNoise(ctx context.Context, opt Options) (*ExtrinsicResult, error) {
	opt = opt.normalize()
	// The ranks run the irregular-code kernel: compensating extrinsic
	// noise with a one-step priority difference only pays off when the
	// sibling's penalty (~12% for this profile) is smaller than the
	// victim's loss — with a decode-saturating synthetic stressor the
	// cure would cost more than the disease (the Case D lesson again).
	load := scaleLoad(60_000, opt.Scale)
	job := &mpisim.Job{Name: "extrinsic"}
	for r := 0; r < 4; r++ {
		var p mpisim.Program
		for i := 0; i < 4; i++ {
			p = append(p, mpisim.Compute(workload.Load{Kind: workload.Branchy, N: load}), mpisim.Barrier())
		}
		job.Ranks = append(job.Ranks, p)
	}
	daemon := oskernel.Daemon{CPU: 0, Period: 20_000, Run: 6_000}

	run := func(withDaemon bool, pl mpisim.Placement) (*mpisim.Result, error) {
		k := oskernel.DefaultConfig()
		if withDaemon {
			k.Daemons = []oskernel.Daemon{daemon}
		}
		return mpisim.RunCtx(ctx, job, pl, mpisim.Config{
			Chip:      power5.DefaultConfig(),
			Kernel:    k,
			KernelSet: true,
		})
	}
	// Clean, noisy and compensated runs are independent: fan them out.
	compensated := mpisim.Placement{
		CPU:  []int{0, 1, 2, 3},
		Prio: []hwpri.Priority{5, 4, 4, 4}, // favor the daemon's victim
	}
	outs, err := runAll(ctx, 3, opt.Workers, func(i int) (*mpisim.Result, error) {
		switch i {
		case 0:
			return run(false, mpisim.DefaultPlacement(4))
		case 1:
			return run(true, mpisim.DefaultPlacement(4))
		default:
			return run(true, compensated)
		}
	})
	if err != nil {
		return nil, err
	}
	clean, noisy, comp := outs[0], outs[1], outs[2]
	return &ExtrinsicResult{
		CleanSeconds: clean.Seconds, CleanImbalance: clean.Imbalance,
		NoisySeconds: noisy.Seconds, NoisyImbalance: noisy.Imbalance,
		CompensatedSeconds: comp.Seconds, CompensatedImbalance: comp.Imbalance,
	}, nil
}

// CheckExtrinsic asserts the Section II-B shape: noise imbalances and
// slows a balanced application; priority compensation recovers part of
// the loss transparently.
func CheckExtrinsic(r *ExtrinsicResult) error {
	if r.CleanImbalance > 10 {
		return fmt.Errorf("clean run already imbalanced (%.1f%%)", r.CleanImbalance)
	}
	if r.NoisyImbalance <= r.CleanImbalance+5 {
		return fmt.Errorf("daemon noise did not imbalance the run (%.1f%% vs %.1f%%)",
			r.NoisyImbalance, r.CleanImbalance)
	}
	if r.NoisySeconds <= r.CleanSeconds {
		return fmt.Errorf("daemon noise did not slow the run")
	}
	if r.CompensatedSeconds >= r.NoisySeconds {
		return fmt.Errorf("priority compensation did not help (%.6fs vs %.6fs)",
			r.CompensatedSeconds, r.NoisySeconds)
	}
	if r.CompensatedImbalance >= r.NoisyImbalance {
		return fmt.Errorf("priority compensation did not reduce imbalance (%.1f%% vs %.1f%%)",
			r.CompensatedImbalance, r.NoisyImbalance)
	}
	return nil
}
