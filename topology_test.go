package smtbalance

import (
	"math"
	"strings"
	"testing"
)

func twoChips() Topology { return Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2} }

// imbalancedJob builds n ranks alternating light/heavy loads.
func imbalancedJob(n int, light, heavy int64) Job {
	job := Job{Name: "topo-test"}
	for r := 0; r < n; r++ {
		load := light
		if r%2 == 1 {
			load = heavy
		}
		job.Ranks = append(job.Ranks, []Phase{Compute("fpu", load), Barrier()})
	}
	return job
}

func TestTopologyAccessors(t *testing.T) {
	var zero Topology
	if zero.Contexts() != 4 || zero.Cores() != 2 || zero.String() != "1x2x2" {
		t.Errorf("zero topology = %d contexts, %d cores, %q; want the 1x2x2 default",
			zero.Contexts(), zero.Cores(), zero.String())
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero topology invalid: %v", err)
	}
	if got := twoChips().Contexts(); got != 8 {
		t.Errorf("2x2x2 has %d contexts, want 8", got)
	}
	if _, err := ParseTopology("2x2x2"); err != nil {
		t.Errorf("ParseTopology(2x2x2): %v", err)
	}
	if _, err := ParseTopology("2x2x4"); err == nil {
		t.Error("ParseTopology accepted 4-way SMT")
	}
	cpu, err := twoChips().CPUOf(1, 1, 1)
	if err != nil || cpu != 7 {
		t.Errorf("CPUOf(1,1,1) = %d, %v; want 7", cpu, err)
	}
	chip, core, ctx := twoChips().Locate(6)
	if chip != 1 || core != 1 || ctx != 0 {
		t.Errorf("Locate(6) = (%d,%d,%d), want (1,1,0)", chip, core, ctx)
	}
}

// TestPinInOrderTooManyRanks is the regression test for the descriptive
// error: pinning more ranks than the machine has contexts must fail up
// front with an error naming the topology, not deep in the simulator.
func TestPinInOrderTooManyRanks(t *testing.T) {
	// Run-time validation against the default topology.
	_, err := testMachine(t, &Options{NoOSNoise: true}).Run(t.Context(), imbalancedJob(6, 1000, 2000), PinInOrder(6))
	if err == nil {
		t.Fatal("6 ranks on the 4-context default topology accepted")
	}
	for _, want := range []string{"1x2x2", "4 hardware contexts", "Options.Topology"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// Eager validation via the topology-aware constructor.
	if _, err := DefaultTopology().PinInOrder(6); err == nil {
		t.Fatal("Topology.PinInOrder(6) on 1x2x2 accepted")
	} else if !strings.Contains(err.Error(), "PinInOrder(6)") {
		t.Errorf("error %q does not name the call", err)
	}
	// The same 6 ranks fit a 2-chip machine.
	pl, err := twoChips().PinInOrder(6)
	if err != nil {
		t.Fatalf("Topology.PinInOrder(6) on 2x2x2: %v", err)
	}
	if len(pl.CPU) != 6 || pl.CPU[5] != 5 {
		t.Fatalf("unexpected placement %+v", pl)
	}
}

// TestEightRankJobOnTwoChips runs an 8-rank job end-to-end through the
// public API on a 2×2×2 topology and checks the machine coordinates.
func TestEightRankJobOnTwoChips(t *testing.T) {
	topo := twoChips()
	job := imbalancedJob(8, 10000, 40000)
	pl, err := topo.PinInOrder(8)
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, &Options{Topology: topo, NoOSNoise: true})
	res, err := m.Run(t.Context(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 8 || res.Cycles <= 0 {
		t.Fatalf("unexpected result: %d ranks, %d cycles", len(res.Ranks), res.Cycles)
	}
	for r, rr := range res.Ranks {
		if rr.Chip != r/4 || rr.Core != r/2 {
			t.Errorf("rank %d at chip %d core %d, want chip %d core %d", r, rr.Chip, rr.Core, r/4, r/2)
		}
	}

	// Balancing via the topology-aware planner must beat pin-in-order.
	works := make([]float64, 8)
	for r := range works {
		works[r] = 10000
		if r%2 == 1 {
			works[r] = 40000
		}
	}
	bal, err := topo.SuggestPlacement(works)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := m.Run(t.Context(), job, bal)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cycles >= res.Cycles {
		t.Errorf("SuggestPlacement on 2 chips did not help: %d >= %d cycles", tuned.Cycles, res.Cycles)
	}
}

// TestSuggestPlacementTooManyRanks mirrors the PinInOrder regression for
// the planner.
func TestSuggestPlacementTooManyRanks(t *testing.T) {
	if _, err := DefaultTopology().SuggestPlacement([]float64{1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("6 works on the default 2-core topology accepted")
	}
	if _, err := twoChips().SuggestPlacement([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Errorf("6 works on 4 cores rejected: %v", err)
	}
}

func TestParsePlacement(t *testing.T) {
	topo := twoChips()
	pl, err := ParsePlacement(topo, "0.0.0@4, 0.0.1@6, 1.1.0, 1.1.1@2")
	if err != nil {
		t.Fatal(err)
	}
	wantCPU := []int{0, 1, 6, 7}
	wantPrio := []Priority{4, 6, 4, 2}
	for i := range wantCPU {
		if pl.CPU[i] != wantCPU[i] || pl.Priority[i] != wantPrio[i] {
			t.Fatalf("entry %d = (cpu %d, prio %d), want (%d, %d)",
				i, pl.CPU[i], pl.Priority[i], wantCPU[i], wantPrio[i])
		}
	}
	for _, bad := range []string{
		"",            // empty
		"0.0",         // not a triple
		"2.0.0",       // chip out of range
		"0.2.0",       // core out of range
		"0.0.2",       // context out of range
		"0.0.0@9",     // invalid priority
		"0.0.0@x",     // non-numeric priority
		"a.b.c",       // non-numeric triple
		"0.0.0,0.0.0", // double pin
	} {
		if _, err := ParsePlacement(topo, bad); err == nil {
			t.Errorf("ParsePlacement accepted %q", bad)
		}
	}
	// A parsed placement runs.
	pl2, err := ParsePlacement(Topology{}, "0.0.0,0.0.1@6,0.1.0,0.1.1@6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testMachine(t, &Options{NoOSNoise: true}).Run(t.Context(), imbalancedJob(4, 5000, 20000), pl2); err != nil {
		t.Fatal(err)
	}
}

// TestSweepOnTwoChips sweeps a 4-rank job over the 2-chip space through
// the public API: the space doubles (pairs packed vs spread), and the
// ranking stays deterministic across worker counts.
func TestSweepOnTwoChips(t *testing.T) {
	job := imbalancedJob(4, 4000, 16000)
	sp := Space{Priorities: []Priority{PriorityMedium, PriorityHigh}}
	run := func(workers int) *SweepResult {
		m := testMachine(t, &Options{Topology: twoChips(), NoOSNoise: true})
		res, err := m.SweepAll(t.Context(), job, sp, &SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if want := 3 * 2 * 16; serial.Evaluated != want {
		t.Fatalf("2-chip space evaluated %d configurations, want %d", serial.Evaluated, want)
	}
	parallel := run(4)
	for i := range serial.Entries {
		a, b := serial.Entries[i], parallel.Entries[i]
		if a.Cycles != b.Cycles || a.Score != b.Score {
			t.Fatalf("entry %d differs between worker counts", i)
		}
	}
	best, err := serial.Best()
	if err != nil {
		t.Fatal(err)
	}
	if max := twoChips().Contexts(); len(best.Placement.CPU) != 4 {
		t.Fatalf("best placement has %d CPUs, want 4 (contexts available: %d)", len(best.Placement.CPU), max)
	}
}

// TestDecodeShareInvariants is the per-core property the whole mechanism
// rests on: for every priority pair the two decode shares are exchanged
// under argument swap, and (for the normal arbitrated modes, both
// priorities >= 2) they partition the core's decode cycles exactly.
func TestDecodeShareInvariants(t *testing.T) {
	for a := Priority(0); a < 8; a++ {
		for b := Priority(0); b < 8; b++ {
			sa, sb, err := DecodeShare(a, b)
			if err != nil {
				t.Fatalf("DecodeShare(%d,%d): %v", a, b, err)
			}
			rb, ra, err := DecodeShare(b, a)
			if err != nil {
				t.Fatal(err)
			}
			if sa != ra || sb != rb {
				t.Errorf("DecodeShare(%d,%d) = (%.4f, %.4f) but swapped gives (%.4f, %.4f)",
					a, b, sa, sb, ra, rb)
			}
			if sa < 0 || sb < 0 || sa > 1 || sb > 1 {
				t.Errorf("DecodeShare(%d,%d) outside [0,1]: %.4f, %.4f", a, b, sa, sb)
			}
			if a >= 2 && b >= 2 && a < 7 && b < 7 {
				if math.Abs(sa+sb-1) > 1e-12 {
					t.Errorf("DecodeShare(%d,%d) shares sum to %.6f, want 1", a, b, sa+sb)
				}
				// R = 2^(|a-b|+1): the favored thread gets (R-1)/R.
				d := int(a) - int(b)
				if d < 0 {
					d = -d
				}
				if d > 0 {
					r := math.Pow(2, float64(d+1))
					hi := sa
					if sb > sa {
						hi = sb
					}
					if math.Abs(hi-(r-1)/r) > 1e-12 {
						t.Errorf("DecodeShare(%d,%d) favored share %.6f, want (R-1)/R = %.6f", a, b, hi, (r-1)/r)
					}
				}
			}
		}
	}
	if _, _, err := DecodeShare(Priority(8), PriorityMedium); err == nil {
		t.Error("DecodeShare accepted priority 8")
	}
}

// TestPartialTopologyRejected is the regression test for the partially-
// specified Options.Topology: it must produce a descriptive error, not
// a zero-context machine (or a divide-by-zero in the error path).
func TestPartialTopologyRejected(t *testing.T) {
	_, err := NewMachine(&Options{Topology: Topology{Chips: 2}})
	if err == nil {
		t.Fatal("partial topology {Chips: 2} accepted")
	}
	if !strings.Contains(err.Error(), "Options.Topology") {
		t.Errorf("error %q does not name Options.Topology", err)
	}
}

// TestFixPairingPinsCoresOnMultiChip is the regression test for the
// FixPairing contract on larger machines: with ranks pre-placed, only
// priorities may move — the sweep must not re-spread the pairs across
// chips.
func TestFixPairingPinsCoresOnMultiChip(t *testing.T) {
	job := imbalancedJob(4, 2000, 8000)
	sp := Space{Priorities: []Priority{PriorityMedium, PriorityHigh}, FixPairing: true}
	m := testMachine(t, &Options{Topology: twoChips(), NoOSNoise: true})
	res, err := m.SweepAll(t.Context(), job, sp, &SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 16; res.Evaluated != want { // 1 pairing × 1 core map × 2^4
		t.Fatalf("fixed-pairing 2-chip space evaluated %d configurations, want %d", res.Evaluated, want)
	}
	for _, e := range res.Entries {
		for r, cpu := range e.Placement.CPU {
			if cpu != r {
				t.Fatalf("FixPairing moved rank %d to CPU %d: %v", r, cpu, e.Placement.CPU)
			}
		}
	}
}
