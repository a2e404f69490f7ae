package experiments

import (
	"context"
	"fmt"

	"repro/internal/apps/metbench"
	"repro/internal/apps/siesta"
	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
)

// KernelPatchResult compares the balanced MetBench case C on the patched
// kernel against the vanilla kernel, whose interrupt handlers reset the
// priorities to MEDIUM (Section VI) — our ablation of the paper's kernel
// modification.
type KernelPatchResult struct {
	// PatchedSeconds and VanillaSeconds are the case C execution times.
	PatchedSeconds, VanillaSeconds float64
	// PatchedImbalance and VanillaImbalance are the imbalance metrics.
	PatchedImbalance, VanillaImbalance float64
}

// KernelPatchAblation runs the ablation.
func KernelPatchAblation(ctx context.Context, opt Options) (*KernelPatchResult, error) {
	opt = opt.normalize()
	cfg := metbench.DefaultConfig()
	cfg.HeavyLoad = scaleLoad(cfg.HeavyLoad, opt.Scale)
	cfg.LightLoad = scaleLoad(cfg.LightLoad, opt.Scale)
	job := metbench.Job(cfg)
	pl, err := metbench.Placement(metbench.CaseC)
	if err != nil {
		return nil, err
	}
	run := func(patched bool) (*mpisim.Result, error) {
		k := oskernel.DefaultConfig()
		k.Patched = patched
		return mpisim.RunCtx(ctx, job, pl, mpisim.Config{
			Chip:      power5.DefaultConfig(),
			Kernel:    k,
			KernelSet: true,
		})
	}
	// The two kernel variants are independent runs: fan them out.
	outs, err := runAll(ctx, 2, opt.Workers, func(i int) (*mpisim.Result, error) {
		return run(i == 0)
	})
	if err != nil {
		return nil, err
	}
	p, v := outs[0], outs[1]
	return &KernelPatchResult{
		PatchedSeconds:   p.Seconds,
		VanillaSeconds:   v.Seconds,
		PatchedImbalance: p.Imbalance,
		VanillaImbalance: v.Imbalance,
	}, nil
}

// CheckKernelPatch asserts the ablation shape: without the patch the
// priority assignment decays and both time and imbalance regress toward
// the unbalanced case.
func CheckKernelPatch(r *KernelPatchResult) error {
	if r.VanillaSeconds <= r.PatchedSeconds {
		return fmt.Errorf("vanilla kernel (%.6fs) not slower than patched (%.6fs)",
			r.VanillaSeconds, r.PatchedSeconds)
	}
	if r.VanillaImbalance <= r.PatchedImbalance {
		return fmt.Errorf("vanilla imbalance %.1f%% not above patched %.1f%%",
			r.VanillaImbalance, r.PatchedImbalance)
	}
	return nil
}

// DynamicResult compares the paper's best static SIESTA assignment (case
// C) against the dynamic OS-level balancer the paper proposes as future
// work (Section VIII), on the shifting-bottleneck SIESTA model.
type DynamicResult struct {
	// ReferenceSeconds is case A (no balancing).
	ReferenceSeconds float64
	// StaticSeconds is the paper's case C static assignment.
	StaticSeconds float64
	// DynamicSeconds is the online balancer starting from case A's
	// neutral priorities.
	DynamicSeconds float64
	// Moves is the number of priority rewrites the balancer performed.
	Moves int
}

// DynamicExtension runs the comparison.
func DynamicExtension(ctx context.Context, opt Options) (*DynamicResult, error) {
	opt = opt.normalize()
	cfg := siesta.DefaultConfig()
	// More iterations, with the bottleneck persisting for several SCF
	// iterations per phase (as in the real application), give the online
	// balancer a trackable signal; no feedback controller can follow a
	// bottleneck that moves every single iteration.
	cfg.Iterations = 36
	cfg.BottleneckBlock = 6
	cfg.UnitLoad = scaleLoad(cfg.UnitLoad, opt.Scale)
	cfg.InitLoad = scaleLoad(cfg.InitLoad, opt.Scale)
	cfg.FinalLoad = scaleLoad(cfg.FinalLoad, opt.Scale)
	job := siesta.Job(cfg)

	runStatic := func(c siesta.Case) (*mpisim.Result, error) {
		pl, err := siesta.Placement(c)
		if err != nil {
			return nil, err
		}
		return mpisim.RunCtx(ctx, job, pl, mpisim.Config{})
	}
	// The two static references are independent of each other and of
	// the dynamic run below; overlap them.
	statics, err := runAll(ctx, 2, opt.Workers, func(i int) (*mpisim.Result, error) {
		if i == 1 {
			return runStatic(siesta.CaseC)
		}
		return runStatic(siesta.CaseA)
	})
	if err != nil {
		return nil, err
	}
	ref, static := statics[0], statics[1]

	plC, err := siesta.Placement(siesta.CaseC)
	if err != nil {
		return nil, err
	}
	// Dynamic: case C's pairing, neutral starting priorities.  MaxDiff 1
	// matches the application's sensitivity (~12% per priority step for
	// this irregular-code profile): the paper's Case D shows what larger
	// differences do to a rank that is sometimes the bottleneck, and the
	// balancer pays that penalty for two iterations at every phase
	// change.  The wider deadband keeps the similarly-loaded P2/P3 pair
	// from toggling on noise.
	pl := mpisim.Placement{CPU: plC.CPU, Prio: mpisim.DefaultPlacement(4).Prio}
	bal := core.NewDynamic(core.DynamicConfig{CPU: pl.CPU, Threshold: 0.09, MaxDiff: 1, Hysteresis: 2})
	dyn, err := mpisim.RunCtx(ctx, job, pl, mpisim.Config{OnIteration: bal.OnIteration})
	if err != nil {
		return nil, err
	}
	return &DynamicResult{
		ReferenceSeconds: ref.Seconds,
		StaticSeconds:    static.Seconds,
		DynamicSeconds:   dyn.Seconds,
		Moves:            bal.Moves,
	}, nil
}

// CheckDynamic asserts the extension's claim: the dynamic balancer
// improves on no balancing, and approaches or beats the best static
// assignment on a workload whose bottleneck moves.
func CheckDynamic(r *DynamicResult) error {
	if r.DynamicSeconds >= r.ReferenceSeconds {
		return fmt.Errorf("dynamic (%.6fs) not better than unbalanced (%.6fs)",
			r.DynamicSeconds, r.ReferenceSeconds)
	}
	if r.Moves == 0 {
		return fmt.Errorf("dynamic balancer never adjusted priorities")
	}
	// Allow a small slack vs the hand-tuned static case.
	if r.DynamicSeconds > r.StaticSeconds*1.05 {
		return fmt.Errorf("dynamic (%.6fs) more than 5%% behind static best (%.6fs)",
			r.DynamicSeconds, r.StaticSeconds)
	}
	return nil
}
