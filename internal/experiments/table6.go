package experiments

import (
	"context"
	"fmt"

	"repro/internal/apps/siesta"
)

// paperTable6 holds the paper's Table VI measurements.
var paperTable6 = map[string]struct {
	imb, exec float64
	comp      []float64
	sync      []float64
}{
	"ST": {8.88, 1236.05, []float64{81.79, 93.72}, []float64{14.22, 5.34}},
	"A":  {14.43, 858.57, []float64{75.94, 75.24, 82.08, 93.47}, []float64{15.42, 18.11, 10.71, 3.18}},
	"B":  {5.99, 847.91, []float64{79.57, 87.06, 72.04, 77.73}, []float64{14.67, 10.15, 12.69, 8.68}},
	"C":  {1.46, 789.20, []float64{83.04, 79.66, 80.78, 78.74}, []float64{10.59, 10.52, 9.41, 9.13}},
	"D":  {16.64, 976.35, []float64{90.76, 65.74, 68.08, 63.95}, []float64{5.60, 22.25, 19.36, 18.10}},
}

// Table6 reproduces Table VI / Figure 4: SIESTA under ST mode and the four
// priority/placement cases.
func Table6(ctx context.Context, opt Options) ([]CaseResult, error) {
	opt = opt.normalize()
	var specs []caseSpec
	for _, c := range siesta.Cases() {
		cfg := siesta.DefaultConfig()
		if c == siesta.CaseST {
			cfg = siesta.STConfig()
		}
		cfg.UnitLoad = scaleLoad(cfg.UnitLoad, opt.Scale)
		cfg.InitLoad = scaleLoad(cfg.InitLoad, opt.Scale)
		cfg.FinalLoad = scaleLoad(cfg.FinalLoad, opt.Scale)
		pl, err := siesta.Placement(c)
		if err != nil {
			return nil, err
		}
		specs = append(specs, caseSpec{label: string(c), job: siesta.Job(cfg), pl: pl})
	}
	out, err := runCases(ctx, specs, opt)
	if err != nil {
		return nil, err
	}
	for k := range out {
		ref := paperTable6[out[k].Case]
		out[k].PaperImbalancePct = ref.imb
		out[k].PaperExecSeconds = ref.exec
		for i := range out[k].Ranks {
			if i < len(ref.comp) {
				out[k].Ranks[i].PaperComp = ref.comp[i]
				out[k].Ranks[i].PaperSync = ref.sync[i]
			}
		}
	}
	return out, nil
}

// CheckTable6 asserts the Table VI shape:
//
//   - execution ordering C < B < A < D: favoring the dominant bottleneck
//     P4 gently (C) wins, over-penalizing P1 (D) loses because the
//     bottleneck moves across iterations;
//   - ST (two ranks) is the slowest configuration overall — SMT pays off
//     for SIESTA;
//   - the static best case C improves a few percent, far less than a
//     perfectly balanced application would, motivating the dynamic
//     balancer (Section VIII).
func CheckTable6(cases []CaseResult) error {
	if err := orderedExec(cases, "C", "B", "A", "D"); err != nil {
		return err
	}
	a, _ := findCase(cases, "A")
	c, _ := findCase(cases, "C")
	d, _ := findCase(cases, "D")
	st, _ := findCase(cases, "ST")
	if st.ExecSeconds <= d.ExecSeconds {
		return fmt.Errorf("ST (%.6fs) not the slowest (case D %.6fs)", st.ExecSeconds, d.ExecSeconds)
	}
	gainC := 100 * (a.ExecSeconds - c.ExecSeconds) / a.ExecSeconds
	if gainC < 0.5 || gainC > 25 {
		return fmt.Errorf("case C improvement %.1f%%, want a moderate positive gain", gainC)
	}
	lossD := 100 * (d.ExecSeconds - a.ExecSeconds) / a.ExecSeconds
	if lossD < 2 {
		return fmt.Errorf("case D loss %.1f%%, want a visible regression", lossD)
	}
	if c.ImbalancePct >= a.ImbalancePct {
		return fmt.Errorf("case C imbalance %.1f%% not below case A %.1f%%", c.ImbalancePct, a.ImbalancePct)
	}
	return nil
}
