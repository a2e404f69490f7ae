package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/workload"
)

// scalingChips are the node sizes of the scaling scenario.
var scalingChips = []int{1, 2, 4}

// btmzLoadPct is the BT-MZ per-process load distribution of the paper's
// Table V discussion (P1..P4 relative computation, percent of the
// heaviest): the zone partitioning gives rank 4 the dominant zone.
var btmzLoadPct = [4]int{18, 24, 67, 100}

// ScalingRow is one node size of the multi-chip scaling scenario.
type ScalingRow struct {
	// Chips and Ranks size the machine (chips × 2 cores × 2-way SMT)
	// and the job (4 ranks per chip).
	Chips, Ranks int
	// NaiveSeconds/NaiveImbalance run the job pinned in order at medium
	// priority (the paper's Case A, scaled out).
	NaiveSeconds   float64
	NaiveImbalance float64
	// BalancedSeconds/BalancedImbalance run the static planner's
	// topology-aware placement (heaviest with lightest per core, model-
	// chosen priority differences).
	BalancedSeconds   float64
	BalancedImbalance float64
}

// Scaling runs the multi-chip scaling scenario: a BT-MZ-style imbalanced
// job (the Table V load distribution, replicated per chip) on 1-, 2- and
// 4-chip nodes, naive pinning versus the topology-aware static plan.  It
// is the workload the generalized machine model opens: the paper's
// priority mechanism operating per-core across a whole node, with each
// chip's private L2 keeping the zones' working sets apart.
func Scaling(ctx context.Context, opt Options) ([]ScalingRow, error) {
	opt = opt.normalize()
	unit := scaleLoad(40_000, opt.Scale)

	return runAll(ctx, len(scalingChips), opt.Workers, func(i int) (ScalingRow, error) {
		return scalingRow(ctx, scalingChips[i], unit)
	})
}

// scalingRow runs one node size.
func scalingRow(ctx context.Context, chips int, unit int64) (ScalingRow, error) {
	topo := power5.Topology{Chips: chips, CoresPerChip: 2, SMTWays: 2}
	n := topo.Contexts()
	works := make([]float64, n)
	job := &mpisim.Job{Name: fmt.Sprintf("btmz-scale-%dchip", chips)}
	for r := 0; r < n; r++ {
		load := unit * int64(btmzLoadPct[r%4]) / 100
		if load < 1 {
			load = 1
		}
		works[r] = float64(load)
		job.Ranks = append(job.Ranks, mpisim.Program{
			mpisim.Compute(workload.Load{Kind: workload.FPU, N: load}),
			mpisim.Barrier(),
			mpisim.Compute(workload.Load{Kind: workload.FPU, N: load}),
			mpisim.Barrier(),
		})
	}
	cfg := mpisim.Config{
		Chip:      power5.DefaultConfig(),
		Topology:  topo,
		Kernel:    oskernel.DefaultConfig(),
		KernelSet: true,
	}

	naive, err := mpisim.RunCtx(ctx, job, mpisim.DefaultPlacement(n), cfg)
	if err != nil {
		return ScalingRow{}, fmt.Errorf("experiments: scaling %d chips, naive: %w", chips, err)
	}
	plan, err := core.PlanStatic(works, topo.Cores(), core.DefaultModel())
	if err != nil {
		return ScalingRow{}, err
	}
	balanced, err := mpisim.RunCtx(ctx, job, mpisim.Placement{CPU: plan.CPU, Prio: plan.Prio}, cfg)
	if err != nil {
		return ScalingRow{}, fmt.Errorf("experiments: scaling %d chips, balanced: %w", chips, err)
	}
	return ScalingRow{
		Chips:             chips,
		Ranks:             n,
		NaiveSeconds:      naive.Seconds,
		NaiveImbalance:    naive.Imbalance,
		BalancedSeconds:   balanced.Seconds,
		BalancedImbalance: balanced.Imbalance,
	}, nil
}

// FormatScaling renders the scenario as a table.
func FormatScaling(rows []ScalingRow) string {
	tb := metrics.NewTable("Scaling — BT-MZ-style imbalance on 1/2/4 chips",
		"Chips", "Ranks", "Naive", "Imb%", "Balanced", "Imb%", "Gain")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(r.Chips), fmt.Sprint(r.Ranks),
			metrics.Seconds(r.NaiveSeconds), fmt.Sprintf("%.2f", r.NaiveImbalance),
			metrics.Seconds(r.BalancedSeconds), fmt.Sprintf("%.2f", r.BalancedImbalance),
			metrics.Speedup(r.NaiveSeconds, r.BalancedSeconds))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("(4 ranks per chip, Table V load distribution 18/24/67/100% per chip;\n" +
		" balanced = topology-aware static plan, per-core priority differences)\n")
	return b.String()
}

// CheckScaling asserts the scenario's shape: at every node size the job
// completes, the naive pinning shows the intrinsic imbalance, and the
// topology-aware plan is both faster and better balanced.
func CheckScaling(rows []ScalingRow) error {
	if len(rows) != len(scalingChips) {
		return fmt.Errorf("experiments: %d scaling rows, want %d", len(rows), len(scalingChips))
	}
	for i, r := range rows {
		if r.Chips != scalingChips[i] || r.Ranks != 4*r.Chips {
			return fmt.Errorf("experiments: row %d sized %d chips/%d ranks, want %d/%d",
				i, r.Chips, r.Ranks, scalingChips[i], 4*scalingChips[i])
		}
		if r.NaiveImbalance < 30 {
			return fmt.Errorf("experiments: %d-chip naive imbalance %.1f%%, want the intrinsic >= 30%%",
				r.Chips, r.NaiveImbalance)
		}
		if r.BalancedSeconds >= r.NaiveSeconds {
			return fmt.Errorf("experiments: %d chips: balanced (%.6fs) not faster than naive (%.6fs)",
				r.Chips, r.BalancedSeconds, r.NaiveSeconds)
		}
		if r.BalancedImbalance >= r.NaiveImbalance {
			return fmt.Errorf("experiments: %d chips: balanced imbalance %.1f%% not below naive %.1f%%",
				r.Chips, r.BalancedImbalance, r.NaiveImbalance)
		}
	}
	return nil
}
