// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII) on the simulated machine, with the paper's
// measured values embedded for side-by-side comparison.
//
// Absolute numbers are not expected to match — the substrate is a scaled
// simulator, not the authors' OpenPower 710 — but the *shape* is: which
// case wins, the ordering of cases, the imbalance inversions, and the
// rough magnitude of the improvements.  Each experiment has a Check*
// function asserting that shape; the test suite and the mtbalance CLI both
// use them.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Options tunes experiment execution.
type Options struct {
	// Scale multiplies workload instruction counts; 1.0 is the default
	// documented scale, smaller values run faster (tests use ~0.3).
	Scale float64
	// TraceWidth is the column width of rendered timelines (0 = 100).
	TraceWidth int
	// Workers caps concurrent simulator runs for experiments whose
	// cases are independent; 0 means one per CPU, 1 forces the serial
	// order.  Results are identical for every value: each case lands in
	// its input-order slot regardless of completion order.
	Workers int
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.TraceWidth <= 0 {
		o.TraceWidth = 100
	}
	return o
}

// scaleLoad applies the option scale to an instruction count.
func scaleLoad(n int64, scale float64) int64 {
	s := int64(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

// RankRow is one per-process line of a Tables IV-VI case.
type RankRow struct {
	// Proc is the paper's process name (P1..P4).
	Proc string
	// Core is the physical core (paper numbering: 1 or 2).
	Core int
	// Prio is the hardware priority.
	Prio int
	// CompPct and SyncPct are the measured computation and
	// synchronization percentages.
	CompPct, SyncPct float64
	// PaperComp and PaperSync are the values from the paper's table.
	PaperComp, PaperSync float64
}

// CaseResult is one case row of a Tables IV-VI experiment.
type CaseResult struct {
	// Case is the row label (ST, A, B, C, D).
	Case string
	// ExecSeconds is the measured total execution time (simulated
	// seconds at the reduced scale).
	ExecSeconds float64
	// ImbalancePct is the measured imbalance (max sync %).
	ImbalancePct float64
	// PaperExecSeconds and PaperImbalancePct are the paper's values.
	PaperExecSeconds, PaperImbalancePct float64
	// Ranks holds the per-process lines.
	Ranks []RankRow
	// TraceText is the rendered timeline (the case's Figure panel).
	TraceText string
	// Trace is the raw interval trace behind TraceText, for CSV and
	// PARAVER export.
	Trace *trace.Trace
	// Cycles is the raw simulated cycle count.
	Cycles int64
}

// runCase executes a job under a placement with the standard experiment
// environment (patched kernel with timer ticks) and packages the result.
func runCase(ctx context.Context, job *mpisim.Job, pl mpisim.Placement, opt Options, label string, procs []string) (CaseResult, error) {
	cfg := mpisim.Config{
		Chip:      power5.DefaultConfig(),
		Kernel:    oskernel.DefaultConfig(),
		KernelSet: true,
	}
	res, err := mpisim.RunCtx(ctx, job, pl, cfg)
	if err != nil {
		return CaseResult{}, fmt.Errorf("experiments: case %s: %w", label, err)
	}
	cr := CaseResult{
		Case:         label,
		ExecSeconds:  res.Seconds,
		ImbalancePct: res.Imbalance,
		TraceText:    res.Trace.Render(opt.TraceWidth),
		Trace:        res.Trace,
		Cycles:       res.Cycles,
	}
	for r, rr := range res.Ranks {
		name := fmt.Sprintf("P%d", r+1)
		if r < len(procs) {
			name = procs[r]
		}
		cr.Ranks = append(cr.Ranks, RankRow{
			Proc:    name,
			Core:    rr.Core + 1, // paper numbers cores from 1
			Prio:    int(rr.Prio),
			CompPct: rr.ComputePct,
			SyncPct: rr.SyncPct,
		})
	}
	return cr, nil
}

// caseSpec is one independent case of a table experiment: its own job
// and placement, ready to run concurrently with its siblings.
type caseSpec struct {
	label string
	job   *mpisim.Job
	pl    mpisim.Placement
	procs []string
}

// runAll runs fn over [0, n) through the shared worker pool and returns
// the values in index order, or the lowest-index failure — the error the
// serial loop would have returned.  The output is independent of the
// worker count, so parallel and serial experiment runs render
// byte-identical tables.
func runAll[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	type outcome struct {
		val T
		err error
	}
	outs, err := sweep.Map(ctx, n, workers, func(i int) outcome {
		v, err := fn(i)
		return outcome{v, err}
	})
	if err != nil {
		return nil, err
	}
	vals := make([]T, n)
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		vals[i] = o.val
	}
	return vals, nil
}

// runCases executes independent cases through the shared worker pool.
func runCases(ctx context.Context, specs []caseSpec, opt Options) ([]CaseResult, error) {
	return runAll(ctx, len(specs), opt.Workers, func(i int) (CaseResult, error) {
		return runCase(ctx, specs[i].job, specs[i].pl, opt, specs[i].label, specs[i].procs)
	})
}

// FormatCases renders experiment case rows as a paper-style table.
func FormatCases(title string, cases []CaseResult) string {
	tb := metrics.NewTable(title,
		"Test", "Proc", "Core", "P", "Comp%", "(paper)", "Sync%", "(paper)", "Imb%", "(paper)", "Exec", "(paper)")
	for _, c := range cases {
		for i, r := range c.Ranks {
			caseCol, imbCol, imbPaper, execCol, execPaper := "", "", "", "", ""
			if i == 0 {
				caseCol = c.Case
				imbCol = fmt.Sprintf("%.2f", c.ImbalancePct)
				imbPaper = fmt.Sprintf("%.2f", c.PaperImbalancePct)
				execCol = metrics.Seconds(c.ExecSeconds)
				execPaper = fmt.Sprintf("%.2fs", c.PaperExecSeconds)
			}
			tb.AddRow(caseCol, r.Proc, fmt.Sprint(r.Core), fmt.Sprint(r.Prio),
				fmt.Sprintf("%.2f", r.CompPct), fmt.Sprintf("%.2f", r.PaperComp),
				fmt.Sprintf("%.2f", r.SyncPct), fmt.Sprintf("%.2f", r.PaperSync),
				imbCol, imbPaper, execCol, execPaper)
		}
	}
	return tb.String()
}

// FormatSpeedups summarizes case execution times against the reference
// case, paper vs measured — the paper's headline numbers.
func FormatSpeedups(cases []CaseResult, reference string) string {
	var refMeasured, refPaper float64
	for _, c := range cases {
		if c.Case == reference {
			refMeasured, refPaper = c.ExecSeconds, c.PaperExecSeconds
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "improvement over case %s (positive = faster):\n", reference)
	for _, c := range cases {
		if c.Case == reference {
			continue
		}
		fmt.Fprintf(&b, "  case %-3s measured %8s   paper %8s\n", c.Case,
			metrics.Speedup(refMeasured, c.ExecSeconds),
			metrics.Speedup(refPaper, c.PaperExecSeconds))
	}
	return b.String()
}

// findCase returns the case with the given label.
func findCase(cases []CaseResult, label string) (CaseResult, error) {
	for _, c := range cases {
		if c.Case == label {
			return c, nil
		}
	}
	return CaseResult{}, fmt.Errorf("experiments: case %q missing", label)
}

// orderedExec asserts exec(labels[0]) < exec(labels[1]) < ... with a
// tolerance-free strict ordering.
func orderedExec(cases []CaseResult, labels ...string) error {
	prev, err := findCase(cases, labels[0])
	if err != nil {
		return err
	}
	for _, l := range labels[1:] {
		cur, err := findCase(cases, l)
		if err != nil {
			return err
		}
		if cur.ExecSeconds <= prev.ExecSeconds {
			return fmt.Errorf("experiments: expected exec(%s) < exec(%s), got %.6f >= %.6f",
				prev.Case, cur.Case, prev.ExecSeconds, cur.ExecSeconds)
		}
		prev = cur
	}
	return nil
}

// syncOf returns the sync percentage of the named process in a case.
func syncOf(c CaseResult, proc string) float64 {
	for _, r := range c.Ranks {
		if r.Proc == proc {
			return r.SyncPct
		}
	}
	return -1
}

// traceGlyphs sanity-checks that a rendered trace contains computation.
func traceGlyphs(s string) error {
	if !strings.Contains(s, "█") {
		return fmt.Errorf("experiments: trace has no compute intervals:\n%s", s)
	}
	return nil
}
