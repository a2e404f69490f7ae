package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// testOpt runs experiments at a reduced scale to keep the suite fast; the
// full-scale run is exercised by the benchmarks and the mtbalance CLI.
// Workers is left at 0, so independent cases fan out across the CPUs.
var testOpt = Options{Scale: 0.5, TraceWidth: 60}

// TestParallelCasesMatchSerial asserts that fanning an experiment's
// cases across the worker pool changes nothing observable: tables,
// traces and metrics are byte-identical to the serial run.
func TestParallelCasesMatchSerial(t *testing.T) {
	serialOpt, parallelOpt := testOpt, testOpt
	serialOpt.Workers = 1
	parallelOpt.Workers = 4

	serial, err := Table4(t.Context(), serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table4(t.Context(), parallelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Table4 differs between workers=1 and workers=4:\n%s\n%s",
			FormatCases("serial", serial), FormatCases("parallel", parallel))
	}

	srows, err := Table2(t.Context(), serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	prows, err := Table2(t.Context(), parallelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srows, prows) {
		t.Error("Table2 differs between workers=1 and workers=4")
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5 (differences 0..4)", len(rows))
	}
	if err := CheckTable2(rows); err != nil {
		t.Error(err)
	}
	wantR := []int{2, 4, 8, 16, 32}
	for i, r := range rows {
		if r.R != wantR[i] {
			t.Errorf("row %d: R = %d, want %d", i, r.R, wantR[i])
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "31:1") {
		t.Errorf("formatted table missing the 31:1 row:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	rows, err := Table3(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTable3(rows); err != nil {
		t.Error(err)
	}
	out := FormatTable3(rows)
	for _, want := range []string{"single-thread", "power-save", "throttled", "stopped", "leftover"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted Table III missing mode %q:\n%s", want, out)
		}
	}
}

func TestFigure1(t *testing.T) {
	f, err := Figure1(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFigure1(f); err != nil {
		t.Error(err)
	}
}

func TestTable4(t *testing.T) {
	cases, err := Table4(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTable4(cases); err != nil {
		t.Error(err)
	}
	if len(cases) != 4 {
		t.Errorf("got %d cases, want A-D", len(cases))
	}
	for _, c := range cases {
		if len(c.Ranks) != 4 {
			t.Errorf("case %s has %d ranks, want 4", c.Case, len(c.Ranks))
		}
		if c.PaperExecSeconds == 0 {
			t.Errorf("case %s missing paper reference", c.Case)
		}
	}
	out := FormatCases("Table IV", cases)
	if !strings.Contains(out, "81.64") {
		t.Errorf("formatted table missing paper exec reference:\n%s", out)
	}
	if s := FormatSpeedups(cases, "A"); !strings.Contains(s, "case C") {
		t.Errorf("speedup summary missing case C:\n%s", s)
	}
}

func TestTable5(t *testing.T) {
	cases, err := Table5(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTable5(cases); err != nil {
		t.Error(err)
	}
	st, err := findCase(cases, "ST")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ranks) != 2 {
		t.Errorf("ST case has %d ranks, want 2", len(st.Ranks))
	}
}

func TestTable6(t *testing.T) {
	cases, err := Table6(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTable6(cases); err != nil {
		t.Error(err)
	}
}

func TestKernelPatchAblation(t *testing.T) {
	r, err := KernelPatchAblation(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckKernelPatch(r); err != nil {
		t.Error(err)
	}
}

func TestDynamicExtension(t *testing.T) {
	r, err := DynamicExtension(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDynamic(r); err != nil {
		t.Error(err)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 1 || o.TraceWidth != 100 {
		t.Errorf("normalize = %+v", o)
	}
	if scaleLoad(100, 0.5) != 50 {
		t.Error("scaleLoad wrong")
	}
	if scaleLoad(1, 0.001) != 1 {
		t.Error("scaleLoad must clamp to 1")
	}
}

func TestFindCaseMissing(t *testing.T) {
	if _, err := findCase(nil, "Z"); err == nil {
		t.Error("missing case not reported")
	}
}

func TestExtrinsicNoise(t *testing.T) {
	r, err := ExtrinsicNoise(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckExtrinsic(r); err != nil {
		t.Error(err)
	}
}

func TestScaling(t *testing.T) {
	rows, err := Scaling(t.Context(), testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckScaling(rows); err != nil {
		t.Error(err)
	}
	out := FormatScaling(rows)
	for _, want := range []string{"Chips", "16", "Balanced"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted scaling table missing %q:\n%s", want, out)
		}
	}
}
