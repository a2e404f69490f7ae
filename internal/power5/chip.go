package power5

import (
	"fmt"
	"sync"

	"repro/internal/branch"
	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ContextStats are the per-hardware-context performance counters exposed
// by the simulator, mirroring what the paper's authors sampled with the
// POWER5 performance monitor.
type ContextStats struct {
	// Decoded counts instructions accepted by the decode stage.
	Decoded int64
	// Completed counts instructions retired.
	Completed int64
	// DecodeCycles counts cycles in which this context owned the decode
	// stage.
	DecodeCycles int64
	// Mispredicts counts mispredicted branches.
	Mispredicts int64
	// L1Misses counts demand loads that missed the L1.
	L1Misses int64
	// PrioritySets counts executed or-nop priority changes (including
	// ones rejected for insufficient privilege).
	PrioritySets int64
}

// IPC returns instructions per cycle over the given cycle span.
func (s ContextStats) IPC(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(s.Completed) / float64(cycles)
}

// entry is one in-flight instruction in a context's portion of the shared
// completion window.  Decode has the stream write the instruction straight
// into the free slot at the ring's tail.  The entries in [head, issueIdx)
// have issued; doneAt is meaningful only for them.
type entry struct {
	isa.Instr
	doneAt    int64
	decodedAt int64
	pos       int64
}

// depRing is the number of recent per-context completion times retained
// for dependency lookups; it bounds the expressible dependency distance.
const depRing = 64

// context is one SMT hardware thread context.
type context struct {
	stream isa.Stream
	prio   hwpri.Priority
	priv   hwpri.Privilege

	// ring is the in-flight instruction queue (in program order).
	ring         []entry
	head         int // oldest in-flight
	issueIdx     int // next entry to issue
	tail         int // next free slot
	count        int // entries in [head, tail)
	unissued     int // entries in [issueIdx, tail)
	decodePos    int64
	doneTimes    [depRing]int64
	blockedUntil int64

	stats ContextStats
}

// reset returns the context to its power-on state: no stream, an empty
// ring (its slots are kept), clear completion times and counters.
func (ctx *context) reset() {
	ctx.stream = nil
	ctx.head, ctx.issueIdx, ctx.tail, ctx.count, ctx.unissued = 0, 0, 0, 0, 0
	ctx.decodePos = 0
	ctx.doneTimes = [depRing]int64{}
	ctx.blockedUntil = 0
	ctx.stats = ContextStats{}
	ctx.prio = hwpri.Medium
	ctx.priv = hwpri.ProblemState
}

// core is one POWER5 core: two contexts sharing decode, issue, units,
// window, predictor and L1.
type core struct {
	ctx [2]context
	// idle marks the contexts without a stream.  Decode hands it to
	// Allocation.Owner as it stands: a pair assembled afresh each cycle
	// from two one-byte stores stalls the two-byte argument load.
	idle  [2]bool
	alloc hwpri.Allocation
	bp    *branch.Predictor
	// mshr holds completion times of L1 misses, in issue order.  Entries
	// at or below the current cycle have expired; they are pruned only
	// when the slice is full.
	mshr []int64
	// windowUsed counts entries across both contexts.
	windowUsed int
}

// Chip is the simulated POWER5 processor.
type Chip struct {
	cfg    Config
	cores  []*core
	hier   *mem.Hierarchy
	cycle  int64
	halted bool
	// released is set while the chip waits in chipPools for reuse.
	released bool
	// active counts contexts that are running or have instructions in
	// flight, so the per-cycle idleness check is O(1).
	active int
	// ffMaxPeriod is the largest decode-allocation period consulted in a
	// cycle-dependent way so far (see notePeriod); the phase-skip engine
	// uses it as the modulus under which the cycle counter is behaviorally
	// periodic.  Monotonic, at least 2 (complete/issue parity).
	ffMaxPeriod int64
	// unitCap is the per-core functional-unit count of each unit class
	// and opLat the execution latency of each non-memory op, both
	// fixed by cfg.
	unitCap [isa.NumUnits]int
	opLat   [isa.NumOps]int64

	// onEmpty, if set, is invoked when a context's stream runs dry.  The
	// handler may install a new stream (SetStream) and adjust priorities;
	// it must not call Step or Run.
	onEmpty func(core, thread int)
}

// chipPools maps a validated Config to the *sync.Pool of released chips
// of that configuration (see Machine.Release).
var chipPools sync.Map

// New builds a chip from cfg, recycling a released chip of the same
// configuration when there is one: a released chip is reset to the
// power-on state, so it behaves exactly as a new one.
func New(cfg Config) (*Chip, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if p, ok := chipPools.Load(cfg); ok {
		if ch, ok := p.(*sync.Pool).Get().(*Chip); ok {
			ch.released = false
			return ch, nil
		}
	}
	hier, err := mem.NewHierarchy(cfg.Hier)
	if err != nil {
		return nil, err
	}
	ch := &Chip{cfg: cfg, hier: hier}
	ch.unitCap[isa.UnitFX] = cfg.FXUnits
	ch.unitCap[isa.UnitFP] = cfg.FPUnits
	ch.unitCap[isa.UnitLS] = cfg.LSUnits
	ch.unitCap[isa.UnitBR] = cfg.BRUnits
	for op := range ch.opLat {
		ch.opLat[op] = 1
	}
	ch.opLat[isa.FXMul] = int64(cfg.FXMulLatency)
	ch.opLat[isa.FP] = int64(cfg.FPLatency)
	ch.opLat[isa.FPDiv] = int64(cfg.FPDivLatency)
	for i := 0; i < cfg.Cores; i++ {
		co := &core{
			bp:   branch.New(cfg.BranchBits),
			mshr: make([]int64, 0, cfg.MSHRs),
		}
		for t := range co.ctx {
			co.ctx[t].ring = make([]entry, cfg.WindowSize+1)
		}
		ch.cores = append(ch.cores, co)
	}
	ch.reset()
	return ch, nil
}

// reset returns the chip to its power-on state, keeping what it has
// allocated: the caches are flushed in time proportional to their live
// sets, the predictors are cleared, and the rings and MSHR files are
// emptied in place.
func (ch *Chip) reset() {
	ch.hier.Flush()
	ch.cycle, ch.halted, ch.active = 0, false, 0
	ch.ffMaxPeriod = 2
	ch.onEmpty = nil
	for _, co := range ch.cores {
		for t := range co.ctx {
			co.ctx[t].reset()
		}
		co.idle = [2]bool{true, true}
		co.alloc = hwpri.Alloc(hwpri.Medium, hwpri.Medium)
		co.bp.Reset()
		co.mshr = co.mshr[:0]
		co.windowUsed = 0
	}
}

// release resets the chip and hands it to New for reuse.  The caller
// must hold the only reference and must not use the chip afterwards.
func (ch *Chip) release() {
	ch.reset()
	ch.released = true
	p, ok := chipPools.Load(ch.cfg)
	if !ok {
		p, _ = chipPools.LoadOrStore(ch.cfg, new(sync.Pool))
	}
	p.(*sync.Pool).Put(ch)
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Chip {
	ch, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

// Config returns the chip configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// Hierarchy exposes the memory hierarchy (for statistics).
func (ch *Chip) Hierarchy() *mem.Hierarchy { return ch.hier }

// Cycle returns the current cycle number.
func (ch *Chip) Cycle() int64 { return ch.cycle }

// Seconds converts a cycle count to seconds at the configured clock.
func (ch *Chip) Seconds(cycles int64) float64 { return float64(cycles) / ch.cfg.ClockHz }

// OnEmpty registers the stream-exhausted callback.
func (ch *Chip) OnEmpty(f func(core, thread int)) { ch.onEmpty = f }

// Halt makes Run and RunUntil return at the end of the current cycle.  It
// may be called from an OnEmpty handler.
func (ch *Chip) Halt() { ch.halted = true }

// Halted reports whether Halt has been called since the last Run.
func (ch *Chip) Halted() bool { return ch.halted }

func (ch *Chip) checkCT(coreID, thread int) {
	if coreID < 0 || coreID >= len(ch.cores) || thread < 0 || thread >= 2 {
		panic(fmt.Sprintf("power5: no context (core %d, thread %d)", coreID, thread))
	}
}

// SetStream installs s as the instruction stream of the given context; a
// nil stream idles the context.  In-flight instructions are unaffected.
func (ch *Chip) SetStream(coreID, thread int, s isa.Stream) {
	ch.checkCT(coreID, thread)
	co := ch.cores[coreID]
	ctx := &co.ctx[thread]
	// active counts contexts that run or have work in flight.
	was := !co.idle[thread] || ctx.count > 0
	ctx.stream = s
	co.idle[thread] = s == nil
	if now := s != nil || ctx.count > 0; now != was {
		if now {
			ch.active++
		} else {
			ch.active--
		}
	}
}

// Running reports whether the context currently has a stream.
func (ch *Chip) Running(coreID, thread int) bool {
	ch.checkCT(coreID, thread)
	return !ch.cores[coreID].idle[thread]
}

// SetPriority sets the hardware thread priority of a context.  This is
// the Thread Status Register path: it performs no privilege checking (the
// OS layer is responsible), unlike or-nop instructions inside streams.
func (ch *Chip) SetPriority(coreID, thread int, p hwpri.Priority) {
	ch.checkCT(coreID, thread)
	if !p.Valid() {
		panic(fmt.Sprintf("power5: invalid priority %d", p))
	}
	co := ch.cores[coreID]
	co.ctx[thread].prio = p
	co.alloc = hwpri.Alloc(co.ctx[0].prio, co.ctx[1].prio)
}

// Priority returns the hardware thread priority of a context.
func (ch *Chip) Priority(coreID, thread int) hwpri.Priority {
	ch.checkCT(coreID, thread)
	return ch.cores[coreID].ctx[thread].prio
}

// SetPrivilege sets the privilege level at which the context is executing;
// it governs which or-nop priority requests take effect.
func (ch *Chip) SetPrivilege(coreID, thread int, pr hwpri.Privilege) {
	ch.checkCT(coreID, thread)
	ch.cores[coreID].ctx[thread].priv = pr
}

// Allocation returns the current decode allocation of a core.
func (ch *Chip) Allocation(coreID int) hwpri.Allocation {
	return ch.cores[coreID].alloc
}

// ReadTSR models mfspr from the context's Thread Status Register
// (Section V-B): it returns the current priority in the TSR encoding.
func (ch *Chip) ReadTSR(coreID, thread int) hwpri.TSR {
	ch.checkCT(coreID, thread)
	return hwpri.TSRFromPriority(ch.cores[coreID].ctx[thread].prio)
}

// WriteTSR models mtspr to the context's Thread Status Register at the
// context's current privilege level; insufficiently privileged writes are
// silently ignored, as on hardware.  It reports whether the priority
// changed.
func (ch *Chip) WriteTSR(coreID, thread int, t hwpri.TSR) bool {
	ch.checkCT(coreID, thread)
	co := ch.cores[coreID]
	next, ok := hwpri.WriteTSR(co.ctx[thread].prio, t, co.ctx[thread].priv)
	if !ok {
		return false
	}
	co.ctx[thread].prio = next
	co.alloc = hwpri.Alloc(co.ctx[0].prio, co.ctx[1].prio)
	return true
}

// TouchMemory brings addr into core's cache hierarchy without consuming
// simulated time.  Runtimes use it to pre-warm working sets before the
// traced region: the paper measures steady-state applications whose
// footprints have long been resident, and at the reproduction's reduced
// workload scale a cold first pass would otherwise dominate the run.
func (ch *Chip) TouchMemory(coreID int, addr uint64) {
	ch.hier.LoadLatency(coreID, addr)
}

// Stats returns a snapshot of a context's counters.
func (ch *Chip) Stats(coreID, thread int) ContextStats {
	ch.checkCT(coreID, thread)
	return ch.cores[coreID].ctx[thread].stats
}

// Predictor returns a core's shared branch predictor (for statistics).
func (ch *Chip) Predictor(coreID int) *branch.Predictor { return ch.cores[coreID].bp }

// InFlight returns the number of in-flight instructions of a context.
func (ch *Chip) InFlight(coreID, thread int) int {
	ch.checkCT(coreID, thread)
	return ch.cores[coreID].ctx[thread].count
}

// AllIdle reports whether no context is running and no instruction is in
// flight, i.e. further cycles cannot change architectural state.
func (ch *Chip) AllIdle() bool { return ch.active == 0 }

// Step advances the chip by one cycle.
func (ch *Chip) Step() {
	if ch.released {
		panic("power5: chip stepped after its Machine was released")
	}
	for id, co := range ch.cores {
		// A core with no running context and an empty window has nothing
		// to complete, issue or decode; skip all three stages.
		if co.idle[0] && co.idle[1] && co.windowUsed == 0 {
			continue
		}
		ch.complete(co)
		ch.issue(id, co)
		ch.decode(id, co)
	}
	ch.cycle++
}

// Run advances the chip n cycles, stopping early on Halt or when the chip
// goes fully idle.  It returns the number of cycles actually run.
func (ch *Chip) Run(n int64) int64 {
	return ch.RunUntil(ch.cycle + n)
}

// RunUntil advances the chip until the given cycle number, stopping early
// on Halt or full idleness.  It returns the cycles actually run.
func (ch *Chip) RunUntil(target int64) int64 {
	ch.halted = false
	start := ch.cycle
	for ch.cycle < target && !ch.halted {
		ch.Step()
		if ch.AllIdle() {
			break
		}
	}
	return ch.cycle - start
}

// complete retires finished instructions in order, up to CompleteWidth per
// core per cycle.  Retirement alternates between the contexts for
// fairness — the cycle-parity context first, then a, b, a, b … — and a
// context drops out at its first unfinished instruction, so the split of
// the width between the two ready prefixes has a closed form.
func (ch *Chip) complete(co *core) {
	w := ch.cfg.CompleteWidth
	first := int(ch.cycle) & 1
	na, nb := ch.readyPrefix(&co.ctx[first], w), ch.readyPrefix(&co.ctx[first^1], w)
	if na+nb > w {
		// Alternation gives the first context the odd slots, (w+1)/2,
		// plus whatever the second leaves unused; the second takes the
		// rest.
		na = min(na, max((w+1)/2, w-nb))
		nb = w - na
	}
	ch.retire(co, first, na)
	ch.retire(co, first^1, nb)
}

// readyPrefix counts, up to limit, the issued instructions at the head
// of ctx that have finished by this cycle.
func (ch *Chip) readyPrefix(ctx *context, limit int) int {
	n := min(ctx.count-ctx.unissued, limit)
	idx := ctx.head
	for i := 0; i < n; i++ {
		if ctx.ring[idx].doneAt > ch.cycle {
			return i
		}
		if idx++; idx == len(ctx.ring) {
			idx = 0
		}
	}
	return n
}

// retire removes the n oldest instructions of context t from the window.
func (ch *Chip) retire(co *core, t, n int) {
	if n == 0 {
		return
	}
	ctx := &co.ctx[t]
	if ctx.head += n; ctx.head >= len(ctx.ring) {
		ctx.head -= len(ctx.ring)
	}
	ctx.count -= n
	co.windowUsed -= n
	if ctx.count == 0 && co.idle[t] {
		ch.active--
	}
	ctx.stats.Completed += int64(n)
}

// issue dispatches ready instructions in per-context program order, up to
// IssueWidth per core per cycle, subject to functional-unit counts,
// dependency readiness and MSHR availability.
//
// Selection is age-ordered, as in an age-based issue queue: it merges the
// two contexts' in-order queues by decode time, the cycle-parity context
// winning ties.  This lets the decode-cycle share imposed by the hardware
// priorities propagate into issue bandwidth when the window is the
// constraint.  A context leaves the merge at its first instruction that
// cannot go this cycle.
func (ch *Chip) issue(coreID int, co *core) {
	budget := ch.cfg.IssueWidth
	unitFree := ch.unitCap
	first := int(ch.cycle) & 1
	a, b := &co.ctx[first], &co.ctx[first^1]
	aLive, bLive := a.unissued > 0, b.unissued > 0
	for budget > 0 {
		var ctx *context
		switch {
		case aLive && (!bLive || a.ring[a.issueIdx].decodedAt <= b.ring[b.issueIdx].decodedAt):
			ctx = a
		case bLive:
			ctx = b
		default:
			return
		}
		if ch.issueHead(coreID, co, ctx, &unitFree) {
			budget--
			if ctx.unissued > 0 {
				continue
			}
		}
		if ctx == a {
			aLive = false
		} else {
			bLive = false
		}
	}
}

// issueHead issues the oldest unissued instruction of ctx if its
// operand, its unit and, for a load that misses the L1, an MSHR are
// available; it reports whether it did.
func (ch *Chip) issueHead(coreID int, co *core, ctx *context, unitFree *[isa.NumUnits]int) bool {
	e := &ctx.ring[ctx.issueIdx]
	if e.Dep > 0 && e.pos >= int64(e.Dep) && ctx.doneTimes[(e.pos-int64(e.Dep))&(depRing-1)] > ch.cycle {
		return false
	}
	unit := e.Op.Unit()
	if unitFree[unit] == 0 {
		if unit == isa.UnitNone {
			// No unit executes an undefined op: it would wedge the
			// context for the rest of the run.
			thread := 0
			if ctx != &co.ctx[0] {
				thread = 1
			}
			panic(fmt.Sprintf("power5: core %d thread %d: undefined %v", coreID, thread, e.Op))
		}
		return false
	}
	var lat int64
	switch e.Op {
	case isa.Load:
		if way := ch.hier.FindL1(coreID, e.Addr); way >= 0 {
			lat = int64(ch.hier.TouchL1(coreID, way))
			break
		}
		if len(co.mshr) >= ch.cfg.MSHRs && !ch.pruneMSHR(co) {
			return false
		}
		lat = int64(ch.hier.LoadLatency(coreID, e.Addr))
		co.mshr = append(co.mshr, ch.cycle+lat)
		ctx.stats.L1Misses++
	case isa.Store:
		lat = int64(ch.hier.StoreLatency(coreID, e.Addr))
	default:
		lat = ch.opLat[e.Op]
	}
	e.doneAt = ch.cycle + lat
	ctx.doneTimes[e.pos&(depRing-1)] = e.doneAt
	if ctx.issueIdx++; ctx.issueIdx == len(ctx.ring) {
		ctx.issueIdx = 0
	}
	ctx.unissued--
	unitFree[unit]--
	return true
}

// pruneMSHR drops the expired entries of a full MSHR file, keeping the
// live ones in issue order, and reports whether one became free.
func (ch *Chip) pruneMSHR(co *core) bool {
	live := co.mshr[:0]
	for _, d := range co.mshr {
		if d > ch.cycle {
			live = append(live, d)
		}
	}
	co.mshr = live
	return len(live) < ch.cfg.MSHRs
}

// notePeriod widens ffMaxPeriod when this decode arbitration genuinely
// consults the cycle residue.  Stealing makes most single-thread
// situations cycle-invariant: an inactive context's shared-mode slots
// always pass to the sibling, so only a schedule contested by two active
// contexts, a throttled live thread, or a power-save thread depend on
// the absolute cycle.  Callers pre-check Period > ffMaxPeriod.
func (ch *Chip) notePeriod(co *core) {
	switch co.alloc.Mode {
	case hwpri.ModeShared:
		if co.idle[0] || co.idle[1] {
			return
		}
	case hwpri.ModeThrottled:
		if co.idle[co.alloc.Favored] {
			return
		}
	case hwpri.ModePowerSave:
		if co.idle[0] && co.idle[1] {
			return
		}
	default:
		return
	}
	ch.ffMaxPeriod = int64(co.alloc.Period)
}

// decode runs the priority-arbitrated decode stage of one core: the
// context owning this decode cycle feeds up to DecodeWidth instructions
// into the shared window.
//
// Slot accounting is strict for priorities above 1: a slot whose owner is
// merely stalled (mispredict redirect, window full) is wasted, as the
// POWER5 time-slices decode cycles by priority regardless of utilization.
// Only an *inactive* context (no stream — architecturally, a napping
// thread) forfeits its slots to the sibling, and in leftover mode
// (priority 1) the low-priority thread dynamically picks up any cycle the
// favored thread cannot use.
func (ch *Chip) decode(coreID int, co *core) {
	if int64(co.alloc.Period) > ch.ffMaxPeriod {
		ch.notePeriod(co)
	}
	var owner int
	if co.alloc.Mode == hwpri.ModeLeftover {
		// The priority-1 thread takes only cycles the favored thread
		// cannot *fetch* in — redirect stalls or inactivity.  Window
		// backpressure does not donate the slot: the dispatch cycle is
		// simply lost, as for any stalled owner.
		fetchIdle := [2]bool{
			co.idle[0] || ch.cycle < co.ctx[0].blockedUntil,
			co.idle[1] || ch.cycle < co.ctx[1].blockedUntil,
		}
		owner = co.alloc.Owner(ch.cycle, fetchIdle)
	} else {
		owner = co.alloc.Owner(ch.cycle, co.idle)
	}
	if owner < 0 || ch.decodeBlocked(co, owner) {
		return
	}
	ctx := &co.ctx[owner]
	ctx.stats.DecodeCycles++
	cap := ch.cfg.WindowSize
	if !co.idle[1-owner] && ch.cfg.ThreadWindowCap < cap {
		cap = ch.cfg.ThreadWindowCap
	}
	for n := 0; n < ch.cfg.DecodeWidth; n++ {
		if co.windowUsed >= ch.cfg.WindowSize || ctx.count >= cap {
			return
		}
		e := &ctx.ring[ctx.tail]
		if !ctx.stream.Next(&e.Instr) {
			co.idle[owner] = true
			if ctx.count == 0 {
				ch.active--
			}
			if ch.onEmpty != nil {
				ch.onEmpty(coreID, owner)
			}
			return
		}
		e.pos, e.decodedAt = ctx.decodePos, ch.cycle
		if ctx.tail++; ctx.tail == len(ctx.ring) {
			ctx.tail = 0
		}
		ctx.count++
		ctx.unissued++
		ctx.decodePos++
		co.windowUsed++
		ctx.stats.Decoded++
		switch e.Op {
		case isa.Branch:
			if !co.bp.Predict(owner, e.PC, e.Taken) {
				ctx.stats.Mispredicts++
				ctx.blockedUntil = ch.cycle + int64(ch.cfg.MispredictPenalty)
				return
			}
		case isa.OrNop:
			ctx.stats.PrioritySets++
			p := hwpri.Priority(e.Pri)
			if p.Valid() && hwpri.CanSet(ctx.priv, p) && p != ctx.prio {
				ctx.prio = p
				co.alloc = hwpri.Alloc(co.ctx[0].prio, co.ctx[1].prio)
			}
		}
	}
}

// decodeBlocked reports whether context t of core co cannot use a decode
// cycle right now.  Besides stalls and a full window, a context is
// throttled when it already holds ThreadWindowCap entries while its
// sibling is active — the POWER5 dynamic-resource-balancing behaviour.
func (ch *Chip) decodeBlocked(co *core, t int) bool {
	ctx := &co.ctx[t]
	if co.idle[t] || ch.cycle < ctx.blockedUntil || co.windowUsed >= ch.cfg.WindowSize {
		return true
	}
	return !co.idle[1-t] && ctx.count >= ch.cfg.ThreadWindowCap
}
