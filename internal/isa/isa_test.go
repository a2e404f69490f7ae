package isa

import (
	"testing"
	"testing/quick"
)

func drain(s Stream, max int) []Instr {
	var out []Instr
	var in Instr
	for len(out) < max && s.Next(&in) {
		out = append(out, in)
	}
	return out
}

func TestOpUnits(t *testing.T) {
	cases := map[Op]Unit{
		Nop: UnitFX, FX: UnitFX, FXMul: UnitFX, OrNop: UnitFX, Syscall: UnitFX,
		FP: UnitFP, FPDiv: UnitFP,
		Load: UnitLS, Store: UnitLS,
		Branch: UnitBR,
	}
	for op, unit := range cases {
		if got := op.Unit(); got != unit {
			t.Errorf("%v.Unit() = %v, want %v", op, got, unit)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty mnemonic", op)
		}
	}
	if Op(200).String() == "" {
		t.Error("invalid op must still format")
	}
	for u := Unit(0); u < NumUnits; u++ {
		if u.String() == "" {
			t.Errorf("unit %d has empty name", u)
		}
	}
}

func TestSliceStream(t *testing.T) {
	in := []Instr{{Op: FX}, {Op: FP}, {Op: Load, Addr: 64}}
	s := NewSliceStream(in)
	got := drain(s, 10)
	if len(got) != 3 || got[2].Addr != 64 {
		t.Fatalf("drained %v", got)
	}
	var i Instr
	if s.Next(&i) {
		t.Error("exhausted stream must return false")
	}
	s.Reset()
	if got := drain(s, 10); len(got) != 3 {
		t.Errorf("after Reset drained %d instrs, want 3", len(got))
	}
}

func TestLoopStream(t *testing.T) {
	s := NewLoopStream([]Instr{{Op: FX}, {Op: Branch, Taken: true}})
	got := drain(s, 7)
	if len(got) != 7 {
		t.Fatalf("loop stream ended early")
	}
	for i, in := range got {
		wantOp := FX
		if i%2 == 1 {
			wantOp = Branch
		}
		if in.Op != wantOp {
			t.Errorf("instr %d op %v, want %v", i, in.Op, wantOp)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("empty loop body must panic")
		}
	}()
	NewLoopStream(nil)
}

func TestLimit(t *testing.T) {
	s := Limit(NewLoopStream([]Instr{{Op: FX}}), 5)
	if got := drain(s, 100); len(got) != 5 {
		t.Fatalf("limit yielded %d instrs, want 5", len(got))
	}
	if s.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", s.Remaining())
	}
	s.Reset()
	if s.Remaining() != 5 {
		t.Errorf("after Reset Remaining = %d, want 5", s.Remaining())
	}
	if got := drain(s, 3); len(got) != 3 || s.Remaining() != 2 {
		t.Errorf("partial drain: got %d instrs, remaining %d", len(got), s.Remaining())
	}
}

func TestLimitShortInner(t *testing.T) {
	s := Limit(NewSliceStream([]Instr{{Op: FX}, {Op: FX}}), 10)
	if got := drain(s, 100); len(got) != 2 {
		t.Errorf("limit over short inner yielded %d, want 2", len(got))
	}
}

func TestConcat(t *testing.T) {
	s := Concat(
		NewSliceStream([]Instr{{Op: FX}}),
		Empty{},
		NewSliceStream([]Instr{{Op: FP}, {Op: Load}}),
	)
	got := drain(s, 10)
	if len(got) != 3 || got[0].Op != FX || got[1].Op != FP || got[2].Op != Load {
		t.Fatalf("concat drained %v", got)
	}
	s.Reset()
	if got := drain(s, 10); len(got) != 3 {
		t.Errorf("after Reset drained %d, want 3", len(got))
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(NewSliceStream([]Instr{{Op: FX}, {Op: FX}, {Op: FX}}))
	drain(c, 2)
	if c.Count != 2 {
		t.Errorf("Count = %d, want 2", c.Count)
	}
	drain(c, 10)
	if c.Count != 3 {
		t.Errorf("Count = %d, want 3", c.Count)
	}
	c.Reset()
	if c.Count != 0 {
		t.Errorf("after Reset Count = %d, want 0", c.Count)
	}
}

func TestPrioritySet(t *testing.T) {
	s := PrioritySet(6)
	got := drain(s, 5)
	if len(got) != 1 || got[0].Op != OrNop || got[0].Pri != 6 {
		t.Fatalf("PrioritySet stream = %v", got)
	}
}

// Property: Limit(s, n) yields exactly min(n, len(s)) instructions and the
// prefix matches the unlimited stream.
func TestPropLimitPrefix(t *testing.T) {
	f := func(ops []uint8, n uint8) bool {
		instrs := make([]Instr, len(ops))
		for i, o := range ops {
			instrs[i] = Instr{Op: Op(o % uint8(NumOps))}
		}
		full := drain(NewSliceStream(instrs), len(instrs))
		lim := drain(Limit(NewSliceStream(instrs), int64(n)), len(instrs)+1)
		want := int(n)
		if want > len(instrs) {
			want = len(instrs)
		}
		if len(lim) != want {
			return false
		}
		for i := range lim {
			if lim[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Reset makes any combinator stream replay identically.
func TestPropResetReplays(t *testing.T) {
	f := func(ops []uint8) bool {
		instrs := make([]Instr, len(ops))
		for i, o := range ops {
			instrs[i] = Instr{Op: Op(o % uint8(NumOps)), Addr: uint64(i) * 8}
		}
		s := Concat(NewSliceStream(instrs), Limit(NewLoopStream([]Instr{{Op: FX}}), 3))
		first := drain(s, len(instrs)+3)
		s.Reset()
		second := drain(s, len(instrs)+3)
		if len(first) != len(second) {
			return false
		}
		for i := range first {
			if first[i] != second[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
