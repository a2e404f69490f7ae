package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func collect(t *testing.T, l Load, max int) []isa.Instr {
	t.Helper()
	g := NewGen(l)
	var out []isa.Instr
	var in isa.Instr
	for len(out) < max && g.Next(&in) {
		out = append(out, in)
	}
	return out
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		back, err := ParseKind(name)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, back, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
	if Kind(99).String() == "" {
		t.Error("invalid kind must still format")
	}
}

func TestFiniteLoadsHonorN(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k == Spin {
			continue
		}
		got := collect(t, Load{Kind: k, N: 100, Seed: 1}, 1000)
		if len(got) != 100 {
			t.Errorf("%v: yielded %d instructions, want 100", k, len(got))
		}
	}
}

func TestSpinIsInfinite(t *testing.T) {
	got := collect(t, Load{Kind: Spin, N: 5}, 10000)
	if len(got) != 10000 {
		t.Fatalf("spin ended after %d instructions", len(got))
	}
	// The poll loop starts by checking the completion flag at the base
	// address, then walks the progress-engine queues (a real footprint).
	if got[0].Op != isa.Load || got[1].Op != isa.FX || got[2].Op != isa.Branch {
		t.Errorf("spin body = %v %v %v", got[0].Op, got[1].Op, got[2].Op)
	}
	if got[0].Addr != got[16].Addr {
		t.Error("spin loop must re-poll the fixed flag address each iteration")
	}
	walked := map[uint64]bool{}
	for _, in := range got {
		if in.Op == isa.Load {
			walked[in.Addr] = true
		}
	}
	if len(walked) < 16 {
		t.Errorf("spin loop touches only %d distinct addresses; the progress engine walk needs a footprint", len(walked))
	}
}

func TestDeterminism(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		l := Load{Kind: k, N: 500, Seed: 42, Base: 1 << 32}
		a := collect(t, l, 500)
		b := collect(t, l, 500)
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ", k)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: instruction %d differs: %+v vs %+v", k, i, a[i], b[i])
			}
		}
	}
}

func TestResetReplays(t *testing.T) {
	g := NewGen(Load{Kind: Mem, N: 200, Seed: 7})
	var first, second []isa.Instr
	var in isa.Instr
	for g.Next(&in) {
		first = append(first, in)
	}
	g.Reset()
	if g.Emitted() != 0 {
		t.Errorf("Emitted after Reset = %d", g.Emitted())
	}
	for g.Next(&in) {
		second = append(second, in)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestSeedChangesRandomAddresses(t *testing.T) {
	a := collect(t, Load{Kind: Mem, N: 64, Seed: 1}, 64)
	b := collect(t, Load{Kind: Mem, N: 64, Seed: 2}, 64)
	same := true
	for i := range a {
		if a[i].Op == isa.Load && a[i].Addr != b[i].Addr {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical random address streams")
	}
}

func TestAddressesStayInFootprint(t *testing.T) {
	const base = uint64(1) << 40
	for k := Kind(0); k < numKinds; k++ {
		l := Load{Kind: k, N: 2000, Base: base, Seed: 3}
		fp := uint64(l.footprint())
		for _, in := range collect(t, l, 2000) {
			if in.Op != isa.Load && in.Op != isa.Store {
				continue
			}
			if in.Addr < base || in.Addr >= base+fp {
				t.Fatalf("%v: address %#x outside [%#x, %#x)", k, in.Addr, base, base+fp)
			}
		}
	}
}

func TestFootprintOverride(t *testing.T) {
	l := Load{Kind: L1, N: 1000, Footprint: 4096, Seed: 1}
	for _, in := range collect(t, l, 1000) {
		if (in.Op == isa.Load || in.Op == isa.Store) && in.Addr >= 4096 {
			t.Fatalf("address %#x escapes the overridden 4 KB footprint", in.Addr)
		}
	}
}

func TestKernelMixes(t *testing.T) {
	count := func(k Kind, op isa.Op) float64 {
		instrs := collect(t, Load{Kind: k, N: 1600, Seed: 1}, 1600)
		n := 0
		for _, in := range instrs {
			if in.Op == op {
				n++
			}
		}
		return float64(n) / float64(len(instrs))
	}
	// The FPU kernel is calibrated to 6/16 FP so that two co-running
	// instances stay just under the two shared FPUs (see the pattern
	// comment); it must still be the most FP-dense kernel.
	if frac := count(FPU, isa.FP); frac < 0.3 {
		t.Errorf("FPU kernel has only %.0f%% FP ops", frac*100)
	}
	if frac := count(FXU, isa.FX); frac < 0.5 {
		t.Errorf("FXU kernel has only %.0f%% FX ops", frac*100)
	}
	memRefs := func(k Kind) float64 { return count(k, isa.Load) + count(k, isa.Store) }
	if frac := memRefs(L1); frac < 0.4 {
		t.Errorf("L1 kernel has only %.0f%% memory references", frac*100)
	}
	if frac := count(Branchy, isa.Branch); frac < 0.25 {
		t.Errorf("Branchy kernel has only %.0f%% branches", frac*100)
	}
}

func TestLoopBranchesMostlyTaken(t *testing.T) {
	instrs := collect(t, Load{Kind: FPU, N: 20000, Seed: 1}, 20000)
	taken, total := 0, 0
	for _, in := range instrs {
		if in.Op == isa.Branch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("no branches generated")
	}
	if frac := float64(taken) / float64(total); frac < 0.95 {
		t.Errorf("loop branches taken fraction %.2f, want > 0.95", frac)
	}
}

func TestBranchyBranchesUnpredictableMix(t *testing.T) {
	instrs := collect(t, Load{Kind: Branchy, N: 20000, Seed: 9}, 20000)
	taken, total := 0, 0
	for _, in := range instrs {
		if in.Op == isa.Branch && in.PC != pcBase(Branchy)+15*4 { // skip loop branch
			total++
			if in.Taken {
				taken++
			}
		}
	}
	frac := float64(taken) / float64(total)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("data-dependent branches taken fraction %.2f, want ~0.5", frac)
	}
}

func TestInvalidKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGen must panic on invalid kind")
		}
	}()
	NewGen(Load{Kind: numKinds})
}

// Property: every generated instruction is well-formed — valid op, PC within
// the kind's band, memory ops carry addresses, only branches set Taken.
func TestPropWellFormedInstructions(t *testing.T) {
	f := func(rk uint8, seed uint64) bool {
		k := Kind(rk % uint8(numKinds))
		g := NewGen(Load{Kind: k, N: 256, Seed: seed, Base: 1 << 33})
		var in isa.Instr
		for i := 0; i < 256; i++ {
			if !g.Next(&in) {
				return k == Spin || i == 255
			}
			if in.Op > isa.Syscall {
				return false
			}
			if (in.Op == isa.Load || in.Op == isa.Store) && in.Addr < 1<<33 {
				return false
			}
			if in.Taken && in.Op != isa.Branch {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalIndexAndOffset: the pattern index and footprint offset
// Next keeps incrementally equal pos mod len(pattern) and cursor mod
// footprint after Next, FFAdvance and Reset, and a generator advanced by
// FFAdvance goes on exactly as one that ran the same window.
func TestIncrementalIndexAndOffset(t *testing.T) {
	check := func(g *Gen, when string) {
		t.Helper()
		if want := int(g.pos % int64(len(g.pattern))); g.idx != want {
			t.Fatalf("%v/%d after %s: idx %d, want pos %d mod %d = %d",
				g.load.Kind, g.footprint, when, g.idx, g.pos, len(g.pattern), want)
		}
		if want := g.cursor % g.footprint; g.off != want {
			t.Fatalf("%v/%d after %s: off %d, want cursor %d mod footprint = %d",
				g.load.Kind, g.footprint, when, g.off, g.cursor, want)
		}
	}
	var in, ref isa.Instr
	for _, l := range []Load{
		{Kind: L1, Footprint: 1 << 10},
		{Kind: L2, Footprint: 4 << 10},
		{Kind: FXU, Footprint: 12 << 10},
		{Kind: L1, Footprint: 5},
		{Kind: Mem},
	} {
		l.N, l.Seed, l.Base = 1<<62, 3, 1<<32
		g := NewGen(l)
		check(g, "NewGen")
		for i := 0; i < 1000; i++ {
			g.Next(&in)
			check(g, "Next")
		}
		// Windows whose position and cursor deltas are multiples of
		// neither the pattern length nor the footprint.
		for _, w := range []int64{1, 37, 1001} {
			ran := NewGen(l)
			*ran = *g
			c := ran.FFCtrs(nil)
			for i := int64(0); i < w; i++ {
				ran.Next(&ref)
			}
			d := ran.FFCtrs(nil)
			if rest := g.FFAdvance(1, 0, []int64{d[0] - c[0], d[1] - c[1]}); len(rest) != 0 {
				t.Fatalf("FFAdvance left %d deltas", len(rest))
			}
			check(g, "FFAdvance")
			if !UsesLCG(l.Kind) { // FFAdvance does not replay the random state
				for i := 0; i < 64; i++ {
					g.Next(&in)
					ran.Next(&ref)
					if in != ref {
						t.Fatalf("%v/%d: instruction %d after a %d-instruction FFAdvance = %+v, want %+v",
							l.Kind, g.footprint, i, w, in, ref)
					}
				}
			}
			for _, k := range []int64{3, 1000} {
				g.FFAdvance(k, 0, []int64{w, 8*w + 5})
				check(g, "FFAdvance")
			}
		}
		g.Reset()
		check(g, "Reset")
	}
}
