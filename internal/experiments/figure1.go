package experiments

import (
	"context"
	"fmt"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/workload"
)

// Figure1Result holds the two panels of Figure 1: the imbalanced reference
// and the rebalanced run where the bottleneck got more hardware resources.
type Figure1Result struct {
	// ImbalancedTrace and BalancedTrace are the rendered panels (a), (b).
	ImbalancedTrace, BalancedTrace string
	// ImbalancedSeconds and BalancedSeconds are the execution times.
	ImbalancedSeconds, BalancedSeconds float64
}

// Figure1 reproduces the paper's illustrative Figure 1: four processes,
// P1 with a much larger load, synchronizing at a barrier.  In panel (a)
// everything runs at default priorities and P2-P4 idle at the barrier; in
// panel (b) P1 receives more hardware resources (priority 6 vs its core
// sibling's 4): P1 speeds up, P2 slows down but has spare time, and the
// whole application finishes sooner.
func Figure1(ctx context.Context, opt Options) (*Figure1Result, error) {
	opt = opt.normalize()
	heavy := scaleLoad(200_000, opt.Scale)
	light := scaleLoad(90_000, opt.Scale)
	job := &mpisim.Job{Name: "figure1"}
	for r := 0; r < 4; r++ {
		n := light
		if r == 0 {
			n = heavy
		}
		job.Ranks = append(job.Ranks, mpisim.Program{
			mpisim.Compute(workload.Load{Kind: workload.FPU, N: n}),
			mpisim.Barrier(),
		})
	}
	run := func(pl mpisim.Placement) (*mpisim.Result, error) {
		return mpisim.RunCtx(ctx, job, pl, mpisim.Config{})
	}
	base, err := run(mpisim.DefaultPlacement(4))
	if err != nil {
		return nil, err
	}
	// A difference of 1 suffices here; a larger one would over-penalize
	// P2 into a new bottleneck (the Case D lesson).
	tuned, err := run(mpisim.Placement{
		CPU:  []int{0, 1, 2, 3},
		Prio: []hwpri.Priority{5, 4, 4, 4},
	})
	if err != nil {
		return nil, err
	}
	return &Figure1Result{
		ImbalancedTrace:   base.Trace.Render(opt.TraceWidth),
		BalancedTrace:     tuned.Trace.Render(opt.TraceWidth),
		ImbalancedSeconds: base.Seconds,
		BalancedSeconds:   tuned.Seconds,
	}, nil
}

// CheckFigure1 asserts the figure's message: re-assigning resources to the
// bottleneck shortens the application.
func CheckFigure1(f *Figure1Result) error {
	if f.BalancedSeconds >= f.ImbalancedSeconds {
		return fmt.Errorf("figure 1: balanced run (%.6fs) not faster than imbalanced (%.6fs)",
			f.BalancedSeconds, f.ImbalancedSeconds)
	}
	if err := traceGlyphs(f.ImbalancedTrace); err != nil {
		return err
	}
	return traceGlyphs(f.BalancedTrace)
}
