package smtbalance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenPolicySpecs are the built-in policies the policies golden pins:
// each balancer at its defaults, plus one non-default knob per family.
var goldenPolicySpecs = []string{
	"static", "dyn", "dyn,maxdiff=3", "hier", "feedback", "feedback,gain=8",
}

// goldenScenarioSpecs are the six built-in shapes, shrunk so the whole
// golden costs a few seconds while every balancer still gets enough
// iterations to move through its hysteresis.
var goldenScenarioSpecs = []string{
	"uniform,base=1000,iters=16",
	"ramp,base=1000,iters=16",
	"step,base=1000,iters=16",
	"phaseshift,base=1000,iters=16",
	"bursty,base=1000,iters=16",
	"bimodal,base=500,iters=16",
}

// TestPoliciesGolden pins every built-in balancer's decisions: each
// policy spec on each scenario on a one- and a two-chip topology, pinned
// in order at medium priority, one line per run with its cycles,
// imbalance and applied priority rewrites.  A refactor of the balancers
// must leave testdata/policies.golden byte-identical; regenerate with
// `go test . -run TestPoliciesGolden -update` only for an intended
// behavior change.
func TestPoliciesGolden(t *testing.T) {
	type run struct {
		m   *Machine
		job Job
		pl  Placement
		pol Policy
	}
	var runs []run
	for _, ts := range []string{"1x2x2", "2x2x2"} {
		topo, err := ParseTopology(ts)
		if err != nil {
			t.Fatal(err)
		}
		m := testMachine(t, &Options{Topology: topo})
		for _, ss := range goldenScenarioSpecs {
			sc, err := ParseScenario(ss)
			if err != nil {
				t.Fatal(err)
			}
			job, err := sc.Job(topo)
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range goldenPolicySpecs {
				pol, err := ParsePolicy(ps)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run{m, job, PinInOrder(len(job.Ranks)), pol})
			}
		}
	}

	lines := make([]string, len(runs))
	errs := make([]error, len(runs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := runs[i]
				res, err := r.m.RunPolicy(t.Context(), r.job, r.pl, r.pol)
				if err != nil {
					errs[i] = err
					continue
				}
				lines[i] = fmt.Sprintf("%s %s %s cycles=%d imbalance=%.4f moves=%d\n",
					r.m.Topology(), r.job.Name, PolicyID(r.pol), res.Cycles, res.ImbalancePct, res.BalancerMoves)
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "policies", strings.Join(lines, ""))
}

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test . -run %s -update` to create)", err, t.Name())
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\nGot:\n%s\nWant:\n%s", path, got, want)
	}
}
