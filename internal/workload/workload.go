// Package workload provides the synthetic computational kernels used by
// the reproduction's benchmarks.  They play the role of MetBench's "loads"
// (Section VII-A of the paper): each kernel stresses one processor
// resource — floating point units, fixed point units, the L1/L2 caches,
// the memory subsystem, or the branch predictor — for a configurable
// number of instructions, deterministically.
//
// A kernel is an isa.Stream generator: given a Load description it yields
// the dynamic instruction sequence, including effective addresses with the
// kind's locality profile, dependency distances that shape attainable ILP,
// and branch outcomes.
package workload

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Kind selects a kernel family.
type Kind uint8

// Kernel kinds.
const (
	// FPU is a floating-point-bound kernel (dense FMA loops).
	FPU Kind = iota
	// FXU is a fixed-point/integer kernel.
	FXU
	// L1 is a load/store kernel whose footprint fits the L1 data cache.
	L1
	// L2 is a load/store kernel whose footprint fits the shared L2 but
	// not the L1.
	L2
	// Mem streams random accesses over a footprint larger than the L3.
	Mem
	// Branchy is a control-flow-heavy kernel with data-dependent branches.
	Branchy
	// Mixed blends the other kinds, approximating a real solver loop.
	Mixed
	// Spin is the user-level busy-wait loop an MPI rank executes while
	// polling a completion flag; it is infinite (Load.N is ignored).
	Spin
	numKinds
)

var kindNames = [numKinds]string{"fpu", "fxu", "l1", "l2", "mem", "branchy", "mixed", "spin"}

// String returns the kernel family name.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// ParseKind maps a name back to its Kind.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown kind %q", name)
}

// Load describes one kernel instance.
type Load struct {
	// Kind selects the kernel family.
	Kind Kind
	// N is the number of instructions to execute (ignored by Spin,
	// which runs forever).
	N int64
	// Footprint overrides the kind's default data footprint in bytes.
	Footprint int64
	// Base is the start of the kernel's address range.  MPI processes
	// have disjoint address spaces; the runtime gives each rank a
	// distinct base.
	Base uint64
	// Seed drives the kernel's deterministic pseudo-random choices.
	Seed uint64
}

// defaultFootprints per kind, in bytes.  The L1 kernel fits the 32 KB L1D;
// the L2 kernel fits the shared 2 MB L2 (but two co-running instances
// pressure each other); Mem exceeds the 32 MB L3.
var defaultFootprints = [numKinds]int64{
	FPU:     12 << 10,
	FXU:     12 << 10,
	L1:      16 << 10,
	L2:      512 << 10,
	Mem:     64 << 20,
	Branchy: 8 << 10,
	Mixed:   16 << 10,
	Spin:    6 << 10,
}

// EffectiveFootprint returns the data footprint the load will touch: the
// explicit Footprint if set, the kind default otherwise.
func (l Load) EffectiveFootprint() int64 {
	if l.Footprint > 0 {
		return l.Footprint
	}
	return defaultFootprints[l.Kind]
}

// footprint returns the effective footprint.
func (l Load) footprint() int64 { return l.EffectiveFootprint() }

// addrMode describes how a memory step generates addresses.
type addrMode uint8

const (
	addrNone  addrMode = iota
	addrSeq            // sequential 8-byte walk over the footprint
	addrRand           // uniform random line within the footprint
	addrFixed          // always the base address (a polled flag)
)

// step is one slot of a kernel's static loop body.
type step struct {
	op   isa.Op
	dep  uint8
	mode addrMode
	// brRandom marks data-dependent branches (outcome from the LCG);
	// otherwise branches are loop-closing and almost always taken.
	brRandom bool
}

// patterns is the static loop body of each kernel kind.
//
// Calibration note: each compute pattern carries exactly one self-chained
// FP slot ({op: FP, dep: 16} — it depends on itself one iteration back,
// the pattern length being 16).  With the 6-cycle FP latency this caps
// the kernel's unconstrained demand at 16/6 ≈ 2.7 IPC, which is the
// calibration point where the POWER5 behaviours line up: a half share of
// the 5-wide decode (2.5 IPC) just undersupplies the kernel, so a
// spinning sibling costs ~10%, a priority difference of 1 halves the
// penalized thread, and larger differences collapse it exponentially —
// matching the paper's measurements (Tables IV/V).
var patterns = [numKinds][]step{
	FPU: {
		{op: isa.FP, dep: 16}, {op: isa.FP}, {op: isa.Load, mode: addrSeq}, {op: isa.FX},
		{op: isa.FP}, {op: isa.FX}, {op: isa.Load, mode: addrSeq}, {op: isa.FX},
		{op: isa.FP}, {op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.FP},
		{op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.FP}, {op: isa.Branch},
	},
	FXU: {
		{op: isa.FP, dep: 16}, {op: isa.FX}, {op: isa.Load, mode: addrSeq}, {op: isa.FX},
		{op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.FXMul}, {op: isa.FX},
		{op: isa.FX}, {op: isa.FP}, {op: isa.Store, mode: addrSeq}, {op: isa.FX},
		{op: isa.FX}, {op: isa.FX}, {op: isa.FX}, {op: isa.Branch},
	},
	L1: {
		{op: isa.FP, dep: 16}, {op: isa.Load, mode: addrSeq}, {op: isa.Load, mode: addrSeq}, {op: isa.Store, mode: addrSeq},
		{op: isa.FX}, {op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.FP},
		{op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.Load, mode: addrSeq}, {op: isa.FX},
		{op: isa.Store, mode: addrSeq}, {op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.Branch},
	},
	L2: {
		// Streaming walk over a footprint larger than L1: one line miss
		// per 16 loads once warm, refilled from the shared L2.
		{op: isa.FP, dep: 16}, {op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.Load, mode: addrSeq},
		{op: isa.FX}, {op: isa.FP}, {op: isa.Load, mode: addrSeq}, {op: isa.FX},
		{op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.FX}, {op: isa.Store, mode: addrSeq},
		{op: isa.FX}, {op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.Branch},
	},
	Mem: {
		// Independent random loads so several misses overlap in the
		// MSHRs, as in a pointer-dense but software-prefetched sweep.
		{op: isa.Load, mode: addrRand}, {op: isa.FX}, {op: isa.FX}, {op: isa.FX},
		{op: isa.Load, mode: addrRand}, {op: isa.FX, dep: 1}, {op: isa.FX}, {op: isa.FX},
		{op: isa.Load, mode: addrRand}, {op: isa.FX}, {op: isa.FX}, {op: isa.FX},
		{op: isa.Load, mode: addrRand}, {op: isa.FX}, {op: isa.FX}, {op: isa.Branch},
	},
	Branchy: {
		{op: isa.FX}, {op: isa.Branch, brRandom: true}, {op: isa.FX}, {op: isa.FX},
		{op: isa.Branch, brRandom: true}, {op: isa.FX}, {op: isa.Load, mode: addrSeq}, {op: isa.Branch, brRandom: true},
		{op: isa.FX}, {op: isa.FX}, {op: isa.Branch, brRandom: true}, {op: isa.FX},
		{op: isa.Load, mode: addrSeq}, {op: isa.Branch, brRandom: true}, {op: isa.FX}, {op: isa.Branch},
	},
	Mixed: {
		{op: isa.FP, dep: 16}, {op: isa.FX}, {op: isa.Load, mode: addrSeq}, {op: isa.FP},
		{op: isa.Load, mode: addrSeq}, {op: isa.FX}, {op: isa.FP}, {op: isa.Branch, brRandom: true},
		{op: isa.FX}, {op: isa.Store, mode: addrSeq}, {op: isa.FP}, {op: isa.FX},
		{op: isa.Load, mode: addrSeq}, {op: isa.FP}, {op: isa.FXMul}, {op: isa.Branch},
	},
	Spin: {
		// The MPICH busy-wait is not a three-instruction loop: each poll
		// runs the progress engine, walking request queues and socket
		// state with a real L1 footprint.  That queue walk is what makes
		// a spinning rank steal resources from its core sibling — cache
		// lines and decode/issue slots — which is precisely what the
		// paper reclaims by lowering the spinner's priority.
		{op: isa.Load, mode: addrFixed}, {op: isa.FX, dep: 1}, {op: isa.Branch},
		{op: isa.Load, mode: addrSeq}, {op: isa.FX, dep: 1}, {op: isa.FX, dep: 1},
		{op: isa.Branch}, {op: isa.Load, mode: addrSeq}, {op: isa.FX, dep: 1},
		{op: isa.FX}, {op: isa.Branch}, {op: isa.Load, mode: addrSeq},
		{op: isa.FX, dep: 1}, {op: isa.FX, dep: 1}, {op: isa.FX},
		{op: isa.Branch},
	},
}

// pcBase spaces the kinds' pseudo PCs apart so different kernels do not
// alias in the branch predictor by construction.
func pcBase(k Kind) uint32 { return uint32(k) << 16 }

// Gen generates the dynamic instruction stream of one Load.  It implements
// isa.Stream.
//
// Next divides nothing: idx and off are kept incrementally as pos mod
// len(pattern) and cursor mod footprint, and every path that moves pos
// or cursor otherwise (Reset, FFAdvance) recomputes both through sync.
type Gen struct {
	load      Load
	pattern   []step
	footprint uint64
	// limit is the position at which the stream runs dry: N for a
	// finite load, never for Spin or N <= 0.
	limit int64
	// seqStep is 8 mod footprint, the offset advance of one 8-byte step.
	seqStep uint64
	// randMask is footprint-1 when the footprint is a power of two, so
	// random addresses reduce by a mask; 0 otherwise.
	randMask uint64
	pos      int64
	lcg      uint64
	cursor   uint64
	idx      int    // pos mod len(pattern)
	off      uint64 // cursor mod footprint
}

// NewGen returns the generator for the load.
func NewGen(l Load) *Gen {
	if l.Kind >= numKinds {
		panic(fmt.Sprintf("workload: invalid kind %d", l.Kind))
	}
	fp := uint64(l.footprint())
	g := &Gen{
		load:      l,
		pattern:   patterns[l.Kind],
		footprint: fp,
		limit:     math.MaxInt64,
		seqStep:   8 % fp,
	}
	if l.Kind != Spin && l.N > 0 {
		g.limit = l.N
	}
	if fp&(fp-1) == 0 {
		g.randMask = fp - 1
	}
	g.Reset()
	return g
}

// Stream returns the load's instruction stream (alias for NewGen, reading
// better at call sites: workload.Load{...}.Stream()).
func (l Load) Stream() isa.Stream { return NewGen(l) }

// Next implements isa.Stream.
func (g *Gen) Next(in *isa.Instr) bool {
	if g.pos >= g.limit {
		return false
	}
	st := g.pattern[g.idx]
	in.Op = st.op
	in.Dep = st.dep
	in.PC = pcBase(g.load.Kind) + uint32(g.idx)*4
	in.Addr = 0
	in.Taken = false
	in.Pri = 0
	switch st.mode {
	case addrSeq:
		in.Addr = g.load.Base + g.off
		g.cursor += 8
		if g.off += g.seqStep; g.off >= g.footprint {
			g.off -= g.footprint
		}
	case addrRand:
		g.lcg = g.lcg*6364136223846793005 + 1442695040888963407
		// Line-aligned random address within the footprint.
		r := g.lcg >> 17
		if g.randMask != 0 {
			r &= g.randMask
		} else {
			r %= g.footprint
		}
		in.Addr = g.load.Base + r&^uint64(127)
	case addrFixed:
		in.Addr = g.load.Base
	}
	if st.op == isa.Branch {
		if st.brRandom {
			// Data-dependent branches are biased ~81% taken: real
			// solver branches are mostly predictable, unlike the
			// deliberately adversarial Branchy kernel below.
			g.lcg = g.lcg*6364136223846793005 + 1442695040888963407
			if g.load.Kind == Branchy {
				in.Taken = g.lcg>>40&1 == 0
			} else {
				in.Taken = (g.lcg>>40)&15 < 13
			}
		} else {
			// Loop-closing branch: taken except on rare exits.
			in.Taken = g.pos&4095 != 4095
		}
	}
	g.pos++
	if g.idx++; g.idx == len(g.pattern) {
		g.idx = 0
	}
	return true
}

// Reset implements isa.Stream.
func (g *Gen) Reset() {
	g.pos = 0
	g.lcg = g.load.Seed*2862933555777941757 + 3037000493
	g.cursor = 0
	g.sync()
}

// sync recomputes the incremental pattern index and footprint offset
// from pos and cursor.
func (g *Gen) sync() {
	g.idx = int(g.pos % int64(len(g.pattern)))
	g.off = g.cursor % g.footprint
}

// Emitted returns how many instructions have been produced since Reset.
func (g *Gen) Emitted() int64 { return g.pos }

// Kind returns the generator's kernel family.
func (g *Gen) Kind() Kind { return g.load.Kind }
