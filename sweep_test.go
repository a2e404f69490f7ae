package smtbalance

import (
	"reflect"
	"strings"
	"testing"
)

// sweepTestJob is a small imbalanced job: ranks 1 and 3 are heavy.
func sweepTestJob(light, heavy int64) Job {
	return Job{Name: "sweep", Ranks: [][]Phase{
		{Compute("fpu", light), Barrier()},
		{Compute("fpu", heavy), Barrier()},
		{Compute("fpu", light), Barrier()},
		{Compute("fpu", heavy), Barrier()},
	}}
}

func TestSweepPublicDeterminism(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	space := Space{Priorities: []Priority{PriorityMedium, PriorityHigh}}
	m := testMachine(t, nil)
	serial, err := m.SweepAll(t.Context(), job, space, &SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := m.SweepAll(t.Context(), job, space, &SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Entries, parallel.Entries) {
		t.Fatal("workers=1 and workers=8 rankings differ")
	}
	if serial.Evaluated != 48 { // 3 pairings x 2^4
		t.Errorf("evaluated %d configurations, want 48", serial.Evaluated)
	}
}

func TestSweepFixPairing(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	res, err := testMachine(t, nil).SweepAll(t.Context(), job, Space{FixPairing: true,
		Priorities: []Priority{PriorityMedium, PriorityHigh}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 16 {
		t.Errorf("fixed-pairing space evaluated %d, want 16", res.Evaluated)
	}
	for _, e := range res.Entries {
		if !reflect.DeepEqual(e.Placement.CPU, []int{0, 1, 2, 3}) {
			t.Fatalf("FixPairing leaked pairing %v", e.Placement.CPU)
		}
	}
}

func TestSweepBeatsDefaultPlacement(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	m := testMachine(t, nil)
	base, err := m.Run(t.Context(), job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SweepAll(t.Context(), job, UserSettableSpace(), &SweepOptions{Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Cycles >= base.Cycles {
		t.Errorf("sweep best (%d cycles) no faster than default placement (%d cycles)",
			best.Cycles, base.Cycles)
	}
	if len(res.Entries) != 3 {
		t.Errorf("Top=3 kept %d entries", len(res.Entries))
	}
}

func TestSweepObjectives(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	space := Space{FixPairing: true, Priorities: []Priority{PriorityMedium, PriorityHigh}}
	m := testMachine(t, nil)
	byImb, err := m.SweepAll(t.Context(), job, space, &SweepOptions{Objective: MinimizeImbalance()})
	if err != nil {
		t.Fatal(err)
	}
	byCyc, err := m.SweepAll(t.Context(), job, space, &SweepOptions{Objective: MinimizeCycles()})
	if err != nil {
		t.Fatal(err)
	}
	bi, _ := byImb.Best()
	bc, _ := byCyc.Best()
	if bi.ImbalancePct > bc.ImbalancePct {
		t.Errorf("imbalance objective winner (%.2f%%) worse balanced than cycles winner (%.2f%%)",
			bi.ImbalancePct, bc.ImbalancePct)
	}
	w := WeightedObjective(1, 0.5)
	if w.CyclesWeight != 1 || w.ImbalanceWeight != 0.5 {
		t.Errorf("WeightedObjective = %+v", w)
	}
}

func TestSweepRejectsDynamicOptions(t *testing.T) {
	job := sweepTestJob(1000, 2000)
	hooked := testMachine(t, &Options{OnIteration: func(IterationStats) {}})
	if _, err := hooked.SweepAll(t.Context(), job, Space{}, nil); err == nil {
		t.Error("OnIteration accepted in a sweep")
	}
	m := testMachine(t, nil)
	if _, err := m.SweepAll(t.Context(), job, Space{Priorities: []Priority{Priority(9)}}, nil); err == nil {
		t.Error("invalid priority accepted in a space")
	}
	odd := Job{Ranks: job.Ranks[:3]}
	if _, err := m.SweepAll(t.Context(), odd, Space{}, nil); err == nil {
		t.Error("odd rank count accepted")
	}
}

func TestSweepFailedRunsErrorRegardlessOfTop(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	space := Space{FixPairing: true, Priorities: []Priority{PriorityMedium, PriorityHigh}}
	// A 1-cycle budget starves every configuration; the sweep must
	// report that whether or not truncation would hide the failures.
	m := testMachine(t, &Options{MaxCycles: 1})
	for _, top := range []int{0, 2} {
		_, err := m.SweepAll(t.Context(), job, space, &SweepOptions{Top: top})
		if err == nil {
			t.Errorf("Top=%d: sweep with failing runs returned no error", top)
		} else if !strings.Contains(err.Error(), "16 of 16") {
			t.Errorf("Top=%d: error does not report the failure count: %v", top, err)
		}
	}
}

func TestSweepWriteCSV(t *testing.T) {
	job := sweepTestJob(1500, 6000)
	res, err := testMachine(t, nil).SweepAll(t.Context(), job, Space{FixPairing: true,
		Priorities: []Priority{PriorityMedium, PriorityHigh}}, &SweepOptions{Top: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 rows:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "rank,cpus,priorities,") {
		t.Errorf("missing header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") {
		t.Errorf("first data row not rank 1: %s", lines[1])
	}
}

// TestOptimizePlacementThreadsOptions pins that Optimize re-runs its
// winner on the machine's own environment: re-running the winning
// placement on the 1×2×2 default would fail outright when the winner
// used a CPU past 3 and silently mismatch otherwise.  The machine's
// whole environment (topology and noise settings here) must carry into
// the winner's re-run.
func TestOptimizePlacementThreadsOptions(t *testing.T) {
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	opts := &Options{Topology: topo, NoOSNoise: true}
	job := sweepTestJob(200, 800)
	pl, res, err := testMachine(t, opts).Optimize(t.Context(), job, MinimizeCycles())
	if err != nil {
		t.Fatal(err)
	}
	for r, cpu := range pl.CPU {
		if cpu < 0 || cpu >= topo.Contexts() {
			t.Fatalf("winner pins rank %d to CPU %d outside the %s topology", r, cpu, topo)
		}
	}
	// The returned Result must be the winner's run under the machine's
	// own environment: re-running it on a fresh machine with the same
	// options (and so an empty cache) reproduces it exactly.
	rerun, err := testMachine(t, opts).Run(t.Context(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Cycles != res.Cycles {
		t.Errorf("Optimize Result (%d cycles) does not match the winner's run on its own machine (%d cycles)",
			res.Cycles, rerun.Cycles)
	}
	for i, rr := range res.Ranks {
		wantChip := pl.CPU[i] / (topo.CoresPerChip * topo.SMTWays)
		if rr.Chip != wantChip {
			t.Errorf("rank %d reports chip %d, want %d — result not from the 2-chip machine", i, rr.Chip, wantChip)
		}
	}
}

// TestSweepValidatesRankCountUpFront pins the up-front validation: every
// sweep path — fixed pairing or not, on any topology — must reject a
// bad rank count with the same descriptive smtbalance error style as
// Placement.validate, instead of a deep enumerator failure.
func TestSweepValidatesRankCountUpFront(t *testing.T) {
	odd := Job{Name: "odd", Ranks: sweepTestJob(1000, 2000).Ranks[:3]}
	m := testMachine(t, nil)
	for _, space := range []Space{{}, {FixPairing: true}} {
		_, err := m.SweepAll(t.Context(), odd, space, nil)
		if err == nil {
			t.Fatalf("odd rank count accepted (FixPairing=%v)", space.FixPairing)
		}
		if !strings.HasPrefix(err.Error(), "smtbalance:") || !strings.Contains(err.Error(), "even rank count") {
			t.Errorf("odd-count error not descriptive (FixPairing=%v): %v", space.FixPairing, err)
		}
	}

	six := sweepTestJob(1000, 2000)
	six.Ranks = append(six.Ranks, six.Ranks[0], six.Ranks[1])
	for _, space := range []Space{{}, {FixPairing: true}} {
		_, err := m.SweepAll(t.Context(), six, space, nil)
		if err == nil {
			t.Fatalf("6 ranks on the 4-context default accepted (FixPairing=%v)", space.FixPairing)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "smtbalance:") || !strings.Contains(msg, "1x2x2") ||
			!strings.Contains(msg, "4 hardware contexts") || !strings.Contains(msg, "grow Options.Topology") {
			t.Errorf("oversized-job error not descriptive (FixPairing=%v): %v", space.FixPairing, err)
		}
	}

	if _, err := m.SweepAll(t.Context(), Job{Name: "empty"}, Space{}, nil); err == nil ||
		!strings.Contains(err.Error(), "no ranks") {
		t.Errorf("empty job error not descriptive: %v", err)
	}

	// The same validation guards a multi-chip machine.
	multi := testMachine(t, &Options{Topology: Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}})
	if _, err := multi.SweepAll(t.Context(), odd, Space{}, nil); err == nil ||
		!strings.Contains(err.Error(), "even rank count") {
		t.Errorf("Machine.SweepAll odd-count error: %v", err)
	}
	// 6 ranks fit a 2-chip machine: the same job that fails above must
	// enumerate here... except 6 ranks = 3 pairs on 4 cores, which is
	// valid, so only check it gets past the rank-count validation.
	if _, err := multi.SweepAll(t.Context(), six, Space{FixPairing: true,
		Priorities: []Priority{PriorityMedium}}, nil); err != nil {
		t.Errorf("6 ranks rejected on an 8-context machine: %v", err)
	}
}
