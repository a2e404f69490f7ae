// Package isa defines the tiny PowerPC-like instruction set used by the
// POWER5 chip simulator (internal/power5).  Workloads are represented as
// instruction streams rather than binaries: a Stream produces one Instr at
// a time, deterministically, and can be rewound with Reset.
//
// The ISA is deliberately minimal — just enough operation classes to drive
// the simulator's functional units, cache hierarchy, branch predictor and
// the or-nop hardware-priority side channel that this reproduction is
// about.
package isa

import "fmt"

// Op is an operation class.  The simulator cares about which functional
// unit an instruction needs and how long it occupies it, not about
// register-level semantics.
type Op uint8

// Operation classes.
const (
	// Nop executes in one cycle on no particular unit.
	Nop Op = iota
	// FX is a one-cycle fixed-point ALU operation.
	FX
	// FXMul is a multi-cycle fixed-point multiply/divide.
	FXMul
	// FP is a pipelined floating-point operation (fused multiply-add class).
	FP
	// FPDiv is a long-latency unpipelined floating-point divide/sqrt.
	FPDiv
	// Load reads memory at Addr; its latency depends on the cache hierarchy.
	Load
	// Store writes memory at Addr; the store queue hides its latency.
	Store
	// Branch is a conditional branch; Taken is the architectural outcome.
	Branch
	// OrNop is the "or Rx,Rx,Rx" priority-setting no-op (see internal/hwpri).
	// Pri carries the requested hardware priority.
	OrNop
	// Syscall marks a transition into the kernel; the chip treats it as a
	// one-cycle serializing op, the OS layer gives it meaning.
	Syscall
	// NumOps is the number of defined operation classes.
	NumOps
)

var opNames = [NumOps]string{
	"nop", "fx", "fxmul", "fp", "fpdiv", "load", "store", "branch", "ornop", "syscall",
}

// String returns the mnemonic of the operation class.
func (o Op) String() string {
	if int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opNames[o]
}

// Unit identifies a functional-unit class of the core.
type Unit uint8

// Functional-unit classes (POWER5 core: 2 FXU, 2 FPU, 2 LSU, 1 BXU).
const (
	UnitNone Unit = iota
	UnitFX
	UnitFP
	UnitLS
	UnitBR
	// NumUnits is the number of distinct unit classes including UnitNone.
	NumUnits
)

// String returns the unit name.
func (u Unit) String() string {
	switch u {
	case UnitNone:
		return "none"
	case UnitFX:
		return "FXU"
	case UnitFP:
		return "FPU"
	case UnitLS:
		return "LSU"
	case UnitBR:
		return "BXU"
	default:
		return fmt.Sprintf("unit(%d)", uint8(u))
	}
}

// opUnits maps every Op value, defined or not, to its unit class; an
// undefined op needs UnitNone.  Indexing by a uint8 needs no bounds
// check on the issue path.
var opUnits = [256]Unit{
	Nop: UnitFX, FX: UnitFX, FXMul: UnitFX, OrNop: UnitFX, Syscall: UnitFX,
	FP: UnitFP, FPDiv: UnitFP,
	Load: UnitLS, Store: UnitLS,
	Branch: UnitBR,
}

// Unit returns the functional-unit class required by the operation.
func (o Op) Unit() Unit { return opUnits[o] }

// Instr is a single dynamic instruction.
type Instr struct {
	// Op is the operation class.
	Op Op
	// Addr is the effective address for Load/Store.
	Addr uint64
	// PC is a pseudo program counter used to index the branch predictor
	// and to give the instruction an identity within its loop body.
	PC uint32
	// Taken is the architectural outcome for Branch.
	Taken bool
	// Dep is the dependency distance: this instruction consumes the
	// result of the instruction issued Dep positions earlier in the same
	// context (0 = no register dependency).  It lets synthetic kernels
	// express realistic dependency chains without full register renaming.
	Dep uint8
	// Pri is the requested hardware priority for OrNop.
	Pri uint8
}

// Stream produces a deterministic sequence of instructions.
//
// Next fills *Instr and returns true, or returns false when the stream is
// exhausted.  Implementations must be cheap: Next sits on the simulator's
// per-cycle decode path.
type Stream interface {
	Next(*Instr) bool
	// Reset rewinds the stream to its initial state.
	Reset()
}

// FastForwarder is implemented by streams whose state the phase-skip
// engine (internal/mpisim) can capture and advance analytically.  The
// engine snapshots the whole machine at decision points, and when two
// snapshots are byte-identical it knows the window between them will
// repeat exactly, so it can apply k repetitions at once instead of
// ticking through them.
//
// The contract ties the three methods together: FFNorm appends the
// stream's *normalized* state — every field that influences future
// output, with absolute cycle numbers expressed relative to "now" and
// unbounded monotonic fields reduced to their behaviorally relevant
// residue — such that two streams with equal norms produce identical
// futures.  FFCtrs appends the raw extensive counters (positions,
// clocks) that grow across a window even when the norm recurs.
// FFAdvance consumes its own counters' prefix of d (the per-window
// deltas), applies k windows' worth (counter += k·delta, absolute-cycle
// fields += dt), and returns the unconsumed remainder of d.  The append
// order of FFNorm, FFCtrs and FFAdvance must match exactly.
//
// A stream that cannot guarantee the contract returns false from
// FFSupported, which disables phase-skip for the run (the simulator
// falls back to exact per-cycle execution).
type FastForwarder interface {
	FFSupported() bool
	FFNorm(b []byte) []byte
	FFCtrs(c []int64) []int64
	FFAdvance(k, dt int64, d []int64) []int64
}

// SliceStream replays a fixed instruction slice once.
type SliceStream struct {
	Instrs []Instr
	pos    int
}

// NewSliceStream returns a stream over the given instructions.
func NewSliceStream(instrs []Instr) *SliceStream { return &SliceStream{Instrs: instrs} }

// Next implements Stream.
func (s *SliceStream) Next(i *Instr) bool {
	if s.pos >= len(s.Instrs) {
		return false
	}
	*i = s.Instrs[s.pos]
	s.pos++
	return true
}

// Reset implements Stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// LoopStream replays a fixed instruction slice forever (an infinite loop).
type LoopStream struct {
	Body []Instr
	pos  int
}

// NewLoopStream returns an infinite stream cycling over body.  The body
// must be non-empty.
func NewLoopStream(body []Instr) *LoopStream {
	if len(body) == 0 {
		panic("isa: empty loop body")
	}
	return &LoopStream{Body: body}
}

// Next implements Stream; it never returns false.
func (s *LoopStream) Next(i *Instr) bool {
	*i = s.Body[s.pos]
	s.pos++
	if s.pos == len(s.Body) {
		s.pos = 0
	}
	return true
}

// Reset implements Stream.
func (s *LoopStream) Reset() { s.pos = 0 }

// LimitStream truncates an inner stream after N instructions.
type LimitStream struct {
	Inner Stream
	N     int64
	used  int64
}

// Limit returns a stream that yields at most n instructions from inner.
func Limit(inner Stream, n int64) *LimitStream { return &LimitStream{Inner: inner, N: n} }

// Next implements Stream.
func (s *LimitStream) Next(i *Instr) bool {
	if s.used >= s.N {
		return false
	}
	if !s.Inner.Next(i) {
		return false
	}
	s.used++
	return true
}

// Reset implements Stream.
func (s *LimitStream) Reset() {
	s.used = 0
	s.Inner.Reset()
}

// Remaining returns how many instructions the limit still allows.
func (s *LimitStream) Remaining() int64 { return s.N - s.used }

// ConcatStream chains streams back to back.
type ConcatStream struct {
	Parts []Stream
	cur   int
}

// Concat returns a stream yielding each part in order.
func Concat(parts ...Stream) *ConcatStream { return &ConcatStream{Parts: parts} }

// Next implements Stream.
func (s *ConcatStream) Next(i *Instr) bool {
	for s.cur < len(s.Parts) {
		if s.Parts[s.cur].Next(i) {
			return true
		}
		s.cur++
	}
	return false
}

// Reset implements Stream.
func (s *ConcatStream) Reset() {
	s.cur = 0
	for _, p := range s.Parts {
		p.Reset()
	}
}

// CountingStream wraps a stream and counts the instructions delivered.
type CountingStream struct {
	Inner Stream
	// Count is the number of instructions handed out since the last Reset.
	Count int64
}

// NewCounting returns a counting wrapper around inner.
func NewCounting(inner Stream) *CountingStream { return &CountingStream{Inner: inner} }

// Next implements Stream.
func (s *CountingStream) Next(i *Instr) bool {
	if s.Inner.Next(i) {
		s.Count++
		return true
	}
	return false
}

// Reset implements Stream.
func (s *CountingStream) Reset() {
	s.Count = 0
	s.Inner.Reset()
}

// Empty is a stream with no instructions.
type Empty struct{}

// Next implements Stream.
func (Empty) Next(*Instr) bool { return false }

// Reset implements Stream.
func (Empty) Reset() {}

// FFSupported implements FastForwarder: an empty stream has no state.
func (Empty) FFSupported() bool { return true }

// FFNorm implements FastForwarder; the tag byte distinguishes the type
// from other stream implementations in a machine snapshot.
func (Empty) FFNorm(b []byte) []byte { return append(b, 0xE0) }

// FFCtrs implements FastForwarder.
func (Empty) FFCtrs(c []int64) []int64 { return c }

// FFAdvance implements FastForwarder.
func (Empty) FFAdvance(k, dt int64, d []int64) []int64 { return d }

// PrioritySet returns a single-instruction stream executing the or-nop
// that requests hardware priority pri.
func PrioritySet(pri uint8) *SliceStream {
	return NewSliceStream([]Instr{{Op: OrNop, Pri: pri}})
}
