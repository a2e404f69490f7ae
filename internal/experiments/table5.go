package experiments

import (
	"context"
	"fmt"

	"repro/internal/apps/btmz"
)

// paperTable5 holds the paper's Table V measurements.  The ST row has two
// processes.
var paperTable5 = map[string]struct {
	imb, exec float64
	comp      []float64
	sync      []float64
}{
	"ST": {50.27, 108.32, []float64{49.33, 99.46}, []float64{50.59, 0.32}},
	"A":  {82.23, 81.64, []float64{17.63, 28.91, 66.47, 99.72}, []float64{82.32, 71.02, 33.40, 0.09}},
	"B":  {70.93, 127.91, []float64{52.33, 99.64, 28.87, 46.26}, []float64{47.49, 0.14, 71.07, 53.65}},
	"C":  {45.99, 75.62, []float64{65.32, 99.68, 53.78, 85.88}, []float64{34.48, 0.12, 46.11, 14.44}},
	"D":  {33.38, 66.88, []float64{82.73, 73.68, 66.40, 99.72}, []float64{17.10, 26.17, 33.47, 0.09}},
}

// Table5 reproduces Table V / Figure 3: BT-MZ under ST mode and the four
// priority/placement cases.
func Table5(ctx context.Context, opt Options) ([]CaseResult, error) {
	opt = opt.normalize()
	var specs []caseSpec
	for _, c := range btmz.Cases() {
		cfg := btmz.DefaultConfig()
		if c == btmz.CaseST {
			cfg = btmz.STConfig()
		}
		cfg.UnitLoad = scaleLoad(cfg.UnitLoad, opt.Scale)
		pl, err := btmz.Placement(c)
		if err != nil {
			return nil, err
		}
		specs = append(specs, caseSpec{label: string(c), job: btmz.Job(cfg), pl: pl})
	}
	out, err := runCases(ctx, specs, opt)
	if err != nil {
		return nil, err
	}
	for k := range out {
		ref := paperTable5[out[k].Case]
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

// CheckTable5 asserts the Table V shape:
//
//   - execution ordering D < C < A < B (D the paper's 18% win, B the
//     failed attempt that is worse than doing nothing);
//   - ST (two ranks on two cores) is slower than every 4-rank SMT case
//     except the pathological B;
//   - in case A the heaviest zone owner P4 computes ~full time while P1
//     mostly waits;
//   - case B inverts the pair: P1 becomes a bottleneck (its sync drops
//     below A's) while P2 turns into the new critical rank.
func CheckTable5(cases []CaseResult) error {
	if err := orderedExec(cases, "D", "C", "A", "B"); err != nil {
		return err
	}
	a, _ := findCase(cases, "A")
	b, _ := findCase(cases, "B")
	d, _ := findCase(cases, "D")
	st, _ := findCase(cases, "ST")
	if st.ExecSeconds <= a.ExecSeconds {
		return fmt.Errorf("ST (%.6fs) not slower than SMT case A (%.6fs)", st.ExecSeconds, a.ExecSeconds)
	}
	if st.ExecSeconds >= b.ExecSeconds {
		return fmt.Errorf("pathological case B (%.6fs) should be even slower than ST (%.6fs)",
			b.ExecSeconds, st.ExecSeconds)
	}
	if syncOf(a, "P1") < 50 {
		return fmt.Errorf("case A: P1 sync %.1f%%, want the light zone mostly waiting", syncOf(a, "P1"))
	}
	if syncOf(a, "P4") > 10 {
		return fmt.Errorf("case A: P4 sync %.1f%%, want the heavy zone mostly computing", syncOf(a, "P4"))
	}
	if syncOf(b, "P1") >= syncOf(a, "P1") {
		return fmt.Errorf("case B did not shift P1 from waiter toward bottleneck (sync %.1f%% vs %.1f%%)",
			syncOf(b, "P1"), syncOf(a, "P1"))
	}
	if d.ImbalancePct >= a.ImbalancePct {
		return fmt.Errorf("case D imbalance %.1f%% not below case A %.1f%%", d.ImbalancePct, a.ImbalancePct)
	}
	// Headline: case D improves on A by a double-digit percentage.
	gain := 100 * (a.ExecSeconds - d.ExecSeconds) / a.ExecSeconds
	if gain < 8 {
		return fmt.Errorf("case D improvement %.1f%%, want the paper's double-digit-scale gain", gain)
	}
	return nil
}
