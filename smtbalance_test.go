package smtbalance

import (
	"strings"
	"sync"
	"testing"
)

// sharedMachine is the suite-wide default-environment Machine: tests
// that need no options of their own share it, and with it the result
// cache, so configurations repeated across tests simulate once.
var sharedMachine = sync.OnceValue(func() *Machine {
	m, err := NewMachine(nil)
	if err != nil {
		panic(err)
	}
	return m
})

// testMachine returns a Machine for opts — the shared one for nil —
// failing the test if the options are rejected.
func testMachine(t testing.TB, opts *Options) *Machine {
	t.Helper()
	if opts == nil {
		return sharedMachine()
	}
	m, err := NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func demoJob(light, heavy int64) Job {
	return Job{Name: "demo", Ranks: [][]Phase{
		{Compute("fpu", light), Barrier()},
		{Compute("fpu", heavy), Barrier()},
		{Compute("fpu", light), Barrier()},
		{Compute("fpu", heavy), Barrier()},
	}}
}

func TestPriorityHelpers(t *testing.T) {
	if PriorityMedium.String() != "medium" {
		t.Error("Priority.String broken")
	}
	if !PriorityMedium.Valid() || Priority(9).Valid() {
		t.Error("Valid broken")
	}
	for p, want := range map[Priority]bool{
		PriorityOff: false, PriorityVeryLow: false, PriorityLow: true,
		PriorityMedium: true, PriorityMediumHigh: false, PriorityVeryHigh: false,
	} {
		if got := UserSettable(p); got != want {
			t.Errorf("UserSettable(%v) = %v", p, got)
		}
	}
	if !OSSettable(PriorityHigh) || OSSettable(PriorityVeryHigh) || OSSettable(PriorityOff) {
		t.Error("OSSettable broken")
	}
}

func TestDecodeShare(t *testing.T) {
	a, b, err := DecodeShare(PriorityHigh, PriorityLow)
	if err != nil {
		t.Fatal(err)
	}
	if a != 31.0/32 || b != 1.0/32 {
		t.Errorf("DecodeShare(6,2) = %g, %g", a, b)
	}
	if _, _, err := DecodeShare(Priority(8), PriorityLow); err == nil {
		t.Error("invalid priority accepted")
	}
}

func TestKernelKinds(t *testing.T) {
	for _, k := range KernelKinds() {
		if err := ParseKind(k); err != nil {
			t.Errorf("listed kind %q does not parse: %v", k, err)
		}
	}
	if err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("Compute with bogus kind must panic")
		}
	}()
	Compute("bogus", 1)
}

func TestRunBasic(t *testing.T) {
	res, err := testMachine(t, &Options{NoOSNoise: true}).Run(t.Context(), demoJob(10000, 40000), PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Cycles <= 0 {
		t.Fatal("no time elapsed")
	}
	if res.ImbalancePct < 30 {
		t.Errorf("imbalance %.1f%%, want the skew visible", res.ImbalancePct)
	}
	if len(res.Ranks) != 4 || res.Iterations != 1 {
		t.Errorf("ranks %d iterations %d", len(res.Ranks), res.Iterations)
	}
	if res.Ranks[1].ComputePct < 90 {
		t.Errorf("heavy rank compute %.1f%%", res.Ranks[1].ComputePct)
	}
	tl := res.Timeline(60)
	if !strings.Contains(tl, "█") || !strings.Contains(tl, "░") {
		t.Errorf("timeline missing glyphs:\n%s", tl)
	}
	var csv, prv strings.Builder
	if err := res.WriteTraceCSV(&csv); err != nil || !strings.Contains(csv.String(), "compute") {
		t.Error("CSV export broken")
	}
	if err := res.WriteParaver(&prv); err != nil || !strings.HasPrefix(prv.String(), "#Paraver") {
		t.Error("Paraver export broken")
	}
}

// TestManualPriorityBalancing is the paper's headline via the public API.
func TestManualPriorityBalancing(t *testing.T) {
	job := demoJob(10000, 40000)
	m := testMachine(t, &Options{NoOSNoise: true})
	base, err := m.Run(t.Context(), job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := m.Run(t.Context(), job, Placement{
		CPU:      []int{0, 1, 2, 3},
		Priority: []Priority{PriorityMedium, PriorityHigh, PriorityMedium, PriorityHigh},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cycles >= base.Cycles {
		t.Errorf("balancing did not help: %d >= %d", tuned.Cycles, base.Cycles)
	}
	if tuned.ImbalancePct >= base.ImbalancePct {
		t.Errorf("imbalance not reduced: %.1f >= %.1f", tuned.ImbalancePct, base.ImbalancePct)
	}
}

func TestSuggestPlacement(t *testing.T) {
	pl, err := DefaultTopology().SuggestPlacement([]float64{10000, 40000, 10000, 40000})
	if err != nil {
		t.Fatal(err)
	}
	// Each core must pair a heavy with a light rank, heavy favored.
	byCore := map[int][]int{}
	for r, cpu := range pl.CPU {
		byCore[cpu/2] = append(byCore[cpu/2], r)
	}
	for core, ranks := range byCore {
		if len(ranks) != 2 {
			t.Fatalf("core %d has ranks %v", core, ranks)
		}
		a, b := ranks[0], ranks[1]
		heavy, light := a, b
		if (a == 1 || a == 3) == false {
			heavy, light = b, a
		}
		if pl.Priority[heavy] <= pl.Priority[light] {
			t.Errorf("core %d: heavy rank %d not favored", core, heavy)
		}
	}
	// The suggested placement must beat the naive one.
	job := demoJob(10000, 40000)
	m := testMachine(t, &Options{NoOSNoise: true})
	base, err := m.Run(t.Context(), job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	planned, err := m.Run(t.Context(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Cycles >= base.Cycles {
		t.Errorf("suggested placement (%d cycles) not better than naive (%d)", planned.Cycles, base.Cycles)
	}
	if _, err := DefaultTopology().SuggestPlacement([]float64{1, 2, 3}); err == nil {
		t.Error("odd rank count accepted")
	}
}

func TestDynamicBalanceOption(t *testing.T) {
	var job Job
	job.Name = "iterative"
	for r := 0; r < 4; r++ {
		var prog []Phase
		n := int64(8000)
		if r%2 == 1 {
			n = 32000
		}
		for i := 0; i < 10; i++ {
			prog = append(prog, Compute("fpu", n), Barrier())
		}
		job.Ranks = append(job.Ranks, prog)
	}
	var iters int
	base, err := testMachine(t, &Options{NoOSNoise: true}).Run(t.Context(), job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := testMachine(t, &Options{
		NoOSNoise:   true,
		Policy:      &PaperDynamic{MaxDiff: 2},
		OnIteration: func(IterationStats) { iters++ },
	}).Run(t.Context(), job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.BalancerMoves == 0 {
		t.Error("dynamic balancer never moved")
	}
	if iters != 10 {
		t.Errorf("OnIteration fired %d times, want 10", iters)
	}
	if dyn.Cycles >= base.Cycles {
		t.Errorf("dynamic balancing did not help: %d >= %d", dyn.Cycles, base.Cycles)
	}
}

func TestVanillaKernelOption(t *testing.T) {
	// Long enough that several timer ticks fire (the default tick period
	// is 100k cycles): on the vanilla kernel each tick resets the
	// priorities to medium.
	job := demoJob(130000, 600000)
	pl := Placement{
		CPU:      []int{0, 1, 2, 3},
		Priority: []Priority{PriorityMedium, PriorityHigh, PriorityMedium, PriorityHigh},
	}
	patched, err := testMachine(t, nil).Run(t.Context(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := testMachine(t, &Options{VanillaKernel: true}).Run(t.Context(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if vanilla.Cycles <= patched.Cycles {
		t.Errorf("vanilla kernel kept the balancing benefit: %d <= %d", vanilla.Cycles, patched.Cycles)
	}
}

func TestRunValidation(t *testing.T) {
	job := demoJob(100, 100)
	m := testMachine(t, nil)
	if _, err := m.Run(t.Context(), job, Placement{CPU: []int{0, 1, 2, 3}, Priority: []Priority{9, 4, 4, 4}}); err == nil {
		t.Error("invalid priority accepted")
	}
	if _, err := m.Run(t.Context(), Job{}, Placement{}); err == nil {
		t.Error("empty job accepted")
	}
}

func TestComputeSized(t *testing.T) {
	job := Job{Name: "sized", Ranks: [][]Phase{
		{ComputeSized("l1", 5000, 4096), Barrier()},
		{ComputeSized("l1", 5000, 4096), Barrier()},
	}}
	if _, err := testMachine(t, &Options{NoOSNoise: true}).Run(t.Context(), job, PinInOrder(2)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ComputeSized with bogus kind must panic")
		}
	}()
	ComputeSized("bogus", 1, 1)
}
