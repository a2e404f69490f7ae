package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files:
//
//	go test ./internal/experiments -run TestGolden -update
//
// Regenerate ONLY when an output change is intended and reviewed; the
// whole point of the snapshots is that topology refactors cannot drift
// the paper tables silently.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenOpt pins the scale, trace width and worker count the snapshots
// were taken at.  Workers is 1 for fully serial generation; the pooled
// runs are asserted byte-identical to serial elsewhere
// (TestParallelCasesMatchSerial), so the snapshots cover both.
var goldenOpt = Options{Scale: 0.5, TraceWidth: 60, Workers: 1}

// goldenArtifacts renders every snapshotted experiment.
func goldenArtifacts(ctx context.Context) (map[string]string, error) {
	out := make(map[string]string)

	t2, err := Table2(ctx, goldenOpt)
	if err != nil {
		return nil, err
	}
	out["table2"] = FormatTable2(t2)

	for _, tbl := range []struct {
		name, title string
		gen         func(context.Context, Options) ([]CaseResult, error)
	}{
		{"table4", "Table IV — MetBench (Figure 2)", Table4},
		{"table5", "Table V — BT-MZ (Figure 3)", Table5},
		{"table6", "Table VI — SIESTA (Figure 4)", Table6},
	} {
		cases, err := tbl.gen(ctx, goldenOpt)
		if err != nil {
			return nil, err
		}
		ref := "A"
		out[tbl.name] = FormatCases(tbl.title, cases) + "\n" + FormatSpeedups(cases, ref)
	}

	ab, err := KernelPatchAblation(ctx, goldenOpt)
	if err != nil {
		return nil, err
	}
	out["ablation"] = fmt.Sprintf(
		"Kernel patch ablation (MetBench case C):\n"+
			"  patched kernel: %.9fs (imbalance %.4f%%)\n"+
			"  vanilla kernel: %.9fs (imbalance %.4f%%)\n",
		ab.PatchedSeconds, ab.PatchedImbalance, ab.VanillaSeconds, ab.VanillaImbalance)

	sc, err := Scaling(ctx, goldenOpt)
	if err != nil {
		return nil, err
	}
	out["scaling"] = FormatScaling(sc)

	dyn, err := DynamicExtension(ctx, goldenOpt)
	if err != nil {
		return nil, err
	}
	out["dynamic"] = fmt.Sprintf(
		"Dynamic OS-level balancer (SIESTA with moving bottleneck):\n"+
			"  no balancing:     %.9fs\n"+
			"  static best (C):  %.9fs\n"+
			"  dynamic balancer: %.9fs (%d priority moves)\n",
		dyn.ReferenceSeconds, dyn.StaticSeconds, dyn.DynamicSeconds, dyn.Moves)

	return out, nil
}

// TestGoldenTables diffs every experiment rendering against its
// testdata snapshot, byte for byte.  The default 1×2×2 topology must
// reproduce the paper tables identically across refactors; the scaling
// snapshot pins the multi-chip scenario the same way.
func TestGoldenTables(t *testing.T) {
	arts, err := goldenArtifacts(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range arts {
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run `go test ./internal/experiments -run TestGolden -update` to create)", name, err)
		}
		if got != string(want) {
			t.Errorf("%s output drifted from %s.\nGot:\n%s\nWant:\n%s\n(regenerate with -update only if the change is intended)",
				name, path, got, want)
		}
	}
	if *update {
		t.Log("golden files updated")
	}
}
