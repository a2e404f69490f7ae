package experiments

import (
	"context"
	"fmt"

	"repro/internal/apps/metbench"
)

// paperTable4 holds the paper's Table IV measurements.
var paperTable4 = map[string]struct {
	imb, exec float64
	comp      [4]float64
	sync      [4]float64
}{
	"A": {75.69, 81.64, [4]float64{24.32, 98.99, 24.31, 99.99}, [4]float64{75.67, 1.00, 75.69, 0.00}},
	"B": {48.82, 76.98, [4]float64{51.16, 99.82, 51.18, 99.98}, [4]float64{48.83, 0.18, 48.81, 0.01}},
	"C": {1.96, 74.90, [4]float64{98.96, 98.56, 97.01, 98.37}, [4]float64{1.03, 1.43, 2.99, 1.63}},
	"D": {26.62, 95.71, [4]float64{99.87, 73.25, 99.72, 73.25}, [4]float64{0.12, 26.74, 0.27, 26.74}},
}

// Table4 reproduces Table IV / Figure 2: MetBench under the four priority
// cases.
func Table4(ctx context.Context, opt Options) ([]CaseResult, error) {
	opt = opt.normalize()
	cfg := metbench.DefaultConfig()
	cfg.HeavyLoad = scaleLoad(cfg.HeavyLoad, opt.Scale)
	cfg.LightLoad = scaleLoad(cfg.LightLoad, opt.Scale)
	job := metbench.Job(cfg)

	var specs []caseSpec
	for _, c := range metbench.Cases() {
		pl, err := metbench.Placement(c)
		if err != nil {
			return nil, err
		}
		specs = append(specs, caseSpec{label: string(c), job: job, pl: pl})
	}
	out, err := runCases(ctx, specs, opt)
	if err != nil {
		return nil, err
	}
	for k := range out {
		ref := paperTable4[out[k].Case]
		out[k].PaperImbalancePct = ref.imb
		out[k].PaperExecSeconds = ref.exec
		for i := range out[k].Ranks {
			out[k].Ranks[i].PaperComp = ref.comp[i]
			out[k].Ranks[i].PaperSync = ref.sync[i]
		}
	}
	return out, nil
}

// CheckTable4 asserts the Table IV shape:
//
//   - execution time ordering C < B < A < D (C best, D a regression);
//   - imbalance ordering C < B < A;
//   - Case D inverts the imbalance: the heavy workers (P2, P4) become the
//     waiters;
//   - Case C is nearly balanced.
func CheckTable4(cases []CaseResult) error {
	if err := orderedExec(cases, "C", "B", "A", "D"); err != nil {
		return err
	}
	a, _ := findCase(cases, "A")
	b, _ := findCase(cases, "B")
	c, _ := findCase(cases, "C")
	d, _ := findCase(cases, "D")
	if !(c.ImbalancePct < b.ImbalancePct && b.ImbalancePct < a.ImbalancePct) {
		return fmt.Errorf("imbalance not decreasing A->B->C: %.1f, %.1f, %.1f",
			a.ImbalancePct, b.ImbalancePct, c.ImbalancePct)
	}
	if c.ImbalancePct > 12 {
		return fmt.Errorf("case C imbalance %.1f%%, want near-balanced (< 12%%)", c.ImbalancePct)
	}
	// Case A: light workers wait; Case D: heavy workers wait (inversion).
	if syncOf(a, "P1") < syncOf(a, "P2") {
		return fmt.Errorf("case A: light worker P1 (%.1f%%) not waiting more than heavy P2 (%.1f%%)",
			syncOf(a, "P1"), syncOf(a, "P2"))
	}
	if syncOf(d, "P2") < syncOf(d, "P1") {
		return fmt.Errorf("case D: imbalance not inverted (P2 sync %.1f%% < P1 sync %.1f%%)",
			syncOf(d, "P2"), syncOf(d, "P1"))
	}
	for _, cr := range cases {
		if err := traceGlyphs(cr.TraceText); err != nil {
			return err
		}
	}
	return nil
}
