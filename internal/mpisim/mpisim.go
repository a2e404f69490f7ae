// Package mpisim simulates an MPI runtime (the paper used MPICH 1.0.4p1)
// running SPMD applications on the simulated POWER5 machine.
//
// Each rank is an OS process pinned to one logical CPU executing a Program
// — a sequence of phases: Compute (a workload kernel), Barrier (the
// MetBench master/worker synchronization), and Exchange (the BT-MZ/SIESTA
// pattern: mpi_isend/mpi_irecv to neighbours followed by mpi_waitall).
//
// Waiting is busy-waiting, as in MPICH: a rank blocked at a barrier or
// waitall runs the user-level Spin kernel (the progress-engine poll loop)
// on its hardware context, consuming decode cycles and cache space of its
// core sibling.  This is the effect the paper's priority mechanism
// exploits: lowering a spinner's priority gives the core to the
// compute-bound sibling.
package mpisim

import (
	"context"
	"fmt"

	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PhaseKind discriminates program phases.
type PhaseKind uint8

// Phase kinds.
const (
	// PhaseCompute runs a workload kernel to completion.
	PhaseCompute PhaseKind = iota
	// PhaseBarrier blocks until every rank reaches its barrier.
	PhaseBarrier
	// PhaseExchange posts non-blocking sends/receives to the peer ranks
	// and waits (mpi_waitall) until the matching exchanges complete.
	PhaseExchange
)

// Phase is one step of a rank's program.
type Phase struct {
	Kind  PhaseKind
	Load  workload.Load // PhaseCompute
	Peers []int         // PhaseExchange
	Bytes int64         // PhaseExchange
}

// Compute returns a compute phase running the given load.
func Compute(l workload.Load) Phase { return Phase{Kind: PhaseCompute, Load: l} }

// Barrier returns a global barrier phase.
func Barrier() Phase { return Phase{Kind: PhaseBarrier} }

// Exchange returns a neighbour-exchange phase moving bytes to/from peers.
func Exchange(bytes int64, peers ...int) Phase {
	return Phase{Kind: PhaseExchange, Bytes: bytes, Peers: peers}
}

// Program is a rank's phase sequence.
type Program []Phase

// Job is an MPI application: one program per rank.
type Job struct {
	// Name labels the job in diagnostics.
	Name string
	// Ranks holds each rank's program.
	Ranks []Program
}

// Placement pins ranks to logical CPUs with hardware priorities, i.e. the
// experiment configuration of the paper's Tables IV-VI rows.
type Placement struct {
	// CPU maps rank -> logical CPU.
	CPU []int
	// Prio maps rank -> hardware thread priority at launch.
	Prio []hwpri.Priority
}

// DefaultPlacement pins rank i to CPU i at MEDIUM priority — the paper's
// reference Case A.
func DefaultPlacement(ranks int) Placement {
	pl := Placement{CPU: make([]int, ranks), Prio: make([]hwpri.Priority, ranks)}
	for i := range pl.CPU {
		pl.CPU[i] = i
		pl.Prio[i] = hwpri.Medium
	}
	return pl
}

// IterationEvent is passed to Config.OnIteration at every barrier release;
// it is the hook the dynamic balancer (internal/core) attaches to.
type IterationEvent struct {
	// Index counts barrier releases from 0.
	Index int
	// Arrival is the cycle each rank reached the barrier.
	Arrival []int64
	// ComputeCycles is the time each rank spent in compute phases since
	// the previous release — the per-process computation time the
	// paper's proposed OS balancer would sample (Section VIII).  Unlike
	// Arrival it is not distorted by exchange coupling.
	ComputeCycles []int64
	// Release is the cycle the barrier opened.
	Release int64
	// Kernel gives the handler access to the OS (procfs writes).
	Kernel *oskernel.Kernel
	// PIDs maps rank -> PID for procfs writes.
	PIDs []int
}

// ApplyPriority writes the rank's hardware thread priority through the
// kernel's procfs interface — the only path by which an online balancer
// may act, so a vanilla kernel (no procfs file) correctly makes every
// policy inert.  It reports whether the write took effect.
func (ev IterationEvent) ApplyPriority(rank int, prio hwpri.Priority) bool {
	if rank < 0 || rank >= len(ev.PIDs) || ev.Kernel == nil {
		return false
	}
	return ev.Kernel.WriteHMTPriority(ev.PIDs[rank], prio) == nil
}

// Config parameterizes a run.
type Config struct {
	// Chip configures the simulated processor; zero value means
	// power5.DefaultConfig.  With a multi-chip Topology, Chip describes
	// each chip (its Cores is overridden by Topology.CoresPerChip).
	Chip power5.Config
	// Topology sizes the machine as chips × cores-per-chip × SMT ways.
	// The zero value derives a single-chip topology from Chip, i.e. the
	// paper's 1×2×2 OpenPower 710.
	Topology power5.Topology
	// Kernel configures the simulated OS; zero value means
	// oskernel.DefaultConfig (patched, 1000 Hz-equivalent ticks).
	Kernel oskernel.Config
	// KernelSet marks Kernel as explicitly provided (a zero
	// oskernel.Config is a valid vanilla-kernel configuration).
	KernelSet bool
	// CommLatency computes the exchange latency in cycles between two
	// logical CPUs; nil installs DefaultCommLatency.
	CommLatency func(cpuA, cpuB int, bytes int64) int64
	// MaxCycles aborts runs that stop progressing (deadlock guard).
	// 0 means a generous default.
	MaxCycles int64
	// OnIteration, if set, fires at every barrier release.
	OnIteration func(ev IterationEvent)
	// LoadDrift, if set, rewrites a compute phase's load as its rank
	// enters it: it receives the rank, the index of the compute phase
	// within the rank's program (counting compute phases only, from 0)
	// and the phase's declared load, and returns the load actually
	// executed.  It is the hook for open-ended drifting workloads whose
	// per-iteration loads are not known when the job is built — the
	// scenario generators' runtime alternative to precomputing every
	// iteration.  A returned N < 1 is clamped to 1 (N <= 0 would mean
	// an infinite kernel).  The hook must be deterministic if the run's
	// results are to be reproducible.
	LoadDrift func(rank, computeIdx int, load workload.Load) workload.Load
	// ColdCaches skips the cache pre-warming pass.  By default each
	// rank's working set is touched into the hierarchy before the traced
	// region: the paper measures steady-state applications, and at the
	// reproduction's reduced workload scale the cold first pass over a
	// footprint would otherwise dominate the run.
	ColdCaches bool
	// Exact forces per-cycle execution, disabling the phase-skip fast
	// path (see ffwd.go).  Results are byte-identical either way — the
	// fast path only applies windows it can prove will repeat exactly —
	// so Exact exists as an escape hatch and for the differential tests
	// that enforce that equivalence.  Runs with an OnIteration or
	// LoadDrift hook are implicitly exact.
	Exact bool
}

// DefaultCommLatency models the paper's single-node SMP: exchanges between
// contexts of the same core ride the shared L2, cross-core exchanges pay
// the chip interconnect, plus a per-byte cost.  Communication is a fraction
// of a percent of iteration time, as measured in the paper (Section VII-B).
// It assumes the single-chip machine; multi-chip runs install
// TopologyCommLatency (identical on one chip) automatically.
func DefaultCommLatency(cpuA, cpuB int, bytes int64) int64 {
	base := int64(300)
	if cpuA/2 != cpuB/2 {
		base = 800
	}
	return base + bytes/128
}

// crossChipCommBase is the base latency of an exchange between contexts
// on different chips: the transfer leaves the chip entirely (fabric
// bus/SMP interconnect), roughly 3× the on-chip cross-core cost.
const crossChipCommBase = 2500

// TopologyCommLatency returns the default latency model for a machine of
// the given topology: same-core exchanges ride the shared L1/L2 (300
// cycles), same-chip cross-core exchanges pay the on-chip interconnect
// (800), and cross-chip exchanges pay the off-chip fabric (2500), all
// plus a per-byte cost.  On a single-chip topology it is exactly
// DefaultCommLatency.
func TopologyCommLatency(topo power5.Topology) func(cpuA, cpuB int, bytes int64) int64 {
	return func(cpuA, cpuB int, bytes int64) int64 {
		base := int64(300)
		switch {
		case topo.CoreOf(cpuA) == topo.CoreOf(cpuB):
		case topo.ChipOf(cpuA) == topo.ChipOf(cpuB):
			base = 800
		default:
			base = crossChipCommBase
		}
		return base + bytes/128
	}
}

// RankResult summarizes one rank's run.
type RankResult struct {
	// CPU is the logical CPU the rank was pinned to.
	CPU int
	// Core is the physical core of that CPU (global, chip-major index).
	Core int
	// Chip is the chip holding that core (always 0 on the default
	// single-chip topology).
	Chip int
	// Prio is the rank's launch priority.
	Prio hwpri.Priority
	// ComputePct, SyncPct and CommPct are the percentages of the rank's
	// time spent computing, waiting and communicating (the paper's
	// "Comp %" and "Sync %" columns).
	ComputePct, SyncPct, CommPct float64
	// Instructions is the count of completed instructions on the rank's
	// context (including its busy-wait spinning).
	Instructions int64
}

// Result is the outcome of a run.
type Result struct {
	// Cycles is the total execution time in cycles.
	Cycles int64
	// Seconds is Cycles on the simulated 1.65 GHz clock.
	Seconds float64
	// Imbalance is the paper's metric: the maximum Sync percentage over
	// the ranks.
	Imbalance float64
	// Trace holds the full state-interval trace (Figures 2-4).
	Trace *trace.Trace
	// Ranks holds per-rank summaries (Tables IV-VI rows).
	Ranks []RankResult
	// Iterations is the number of barrier releases observed.
	Iterations int
	// SkippedCycles is the number of simulated cycles the phase-skip
	// engine advanced analytically instead of executing; 0 under
	// Config.Exact or when no recurrence was found.  It is a diagnostic:
	// results are identical whatever its value.
	SkippedCycles int64
}

// rankState tracks one rank's progress through its program.
type rankState struct {
	id       int
	proc     *oskernel.Process
	program  Program
	pc       int
	finished bool
	// exchange bookkeeping: arrival cycle of each Exchange phase, in
	// order of arrival.
	exchangeArrivals []int64
	pendingExchange  int // index of the exchange being waited for, -1 none
	wakeAt           int64
	commAt           int64 // when waiting turned into active transfer
	// per-iteration compute accounting for IterationEvent.
	computeAcc   int64
	computeStart int64
	inCompute    bool
	// computeIdx counts the compute phases the rank has started, for
	// Config.LoadDrift.
	computeIdx int
}

type runtime struct {
	job  *Job
	pl   Placement
	cfg  Config
	topo power5.Topology
	mach *power5.Machine
	kern *oskernel.Kernel
	tr   *trace.Trace

	ranks     []*rankState
	byPID     map[int]*rankState
	remaining int

	barrierWaiting []int
	barrierArrival []int64
	iteration      int

	// ff is the phase-skip engine; nil when disabled (Config.Exact,
	// per-iteration hooks, or an uncapturable stream).  ffAnchor marks
	// that an anchor event fired since the last main-loop boundary.
	ff       *ffEngine
	ffAnchor bool
}

// rankBase returns the disjoint address-space base of a rank.
func rankBase(id int) uint64 { return uint64(id+1) << 36 }

// spinLoad is the busy-wait kernel of a rank.
func spinLoad(id int) workload.Load {
	return workload.Load{Kind: workload.Spin, Base: rankBase(id) | 1<<32, Seed: uint64(id) + 101}
}

// RunCtx executes the job under the placement and configuration.  The
// simulator checks ctx between scheduling quanta — at least once per
// million simulated cycles — so a hung or long run aborts promptly when
// the context is cancelled.  The returned error wraps ctx.Err() (test
// with errors.Is).  A nil ctx means context.Background().
func RunCtx(ctx context.Context, job *Job, pl Placement, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(job.Ranks)
	if n == 0 {
		return nil, fmt.Errorf("mpisim: job %q has no ranks", job.Name)
	}
	if len(pl.CPU) != n || len(pl.Prio) != n {
		return nil, fmt.Errorf("mpisim: placement size mismatch: %d ranks, %d CPUs, %d priorities",
			n, len(pl.CPU), len(pl.Prio))
	}
	if cfg.Chip.Cores == 0 {
		cfg.Chip = power5.DefaultConfig()
	}
	topo := cfg.Topology
	if topo.IsZero() {
		topo = power5.Topology{Chips: 1, CoresPerChip: cfg.Chip.Cores, SMTWays: cfg.Chip.ThreadsPerCore}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if !cfg.KernelSet {
		cfg.Kernel = oskernel.DefaultConfig()
	}
	if cfg.CommLatency == nil {
		cfg.CommLatency = TopologyCommLatency(topo)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 33
	}
	mach, err := power5.NewMachine(topo, cfg.Chip)
	if err != nil {
		return nil, err
	}
	// The run is the machine's only owner, and nothing that outlives it
	// (Result, trace) refers to the machine.
	defer mach.Release()
	seen := make(map[int]bool)
	for r, cpu := range pl.CPU {
		if cpu < 0 || cpu >= topo.Contexts() {
			return nil, fmt.Errorf("mpisim: rank %d pinned to CPU %d, but the %s topology has only %d hardware contexts (CPUs 0..%d)",
				r, cpu, topo, topo.Contexts(), topo.Contexts()-1)
		}
		if seen[cpu] {
			return nil, fmt.Errorf("mpisim: CPU %d pinned twice", cpu)
		}
		seen[cpu] = true
	}
	rt := &runtime{
		job:  job,
		pl:   pl,
		cfg:  cfg,
		topo: topo,
		mach: mach,
		kern: oskernel.NewMachine(mach, cfg.Kernel),
		tr:   trace.New(n),
	}
	rt.byPID = make(map[int]*rankState, n)
	rt.kern.OnProcessStreamEnd(rt.onStreamEnd)
	if !cfg.Exact && cfg.OnIteration == nil && cfg.LoadDrift == nil {
		// The engine outlives a disarm (rt.ff = nil), so it is returned
		// to the pool from here.
		ff := newFFEngine()
		defer ffPool.Put(ff)
		rt.ff = ff
	}

	// A priority-7 rank asks for Single Thread mode: take its unused
	// sibling context offline, as the paper's ST rows do.
	rankOn := make(map[int]int)
	for r, cpu := range pl.CPU {
		rankOn[cpu] = r
	}
	for cpu := 0; cpu < rt.kern.NumCPUs(); cpu++ {
		if _, ok := rankOn[cpu]; ok {
			continue
		}
		if sib, ok := rankOn[topo.SiblingCPU(cpu)]; ok && pl.Prio[sib] == hwpri.VeryHigh {
			if err := rt.kern.OfflineCPU(cpu); err != nil {
				return nil, err
			}
		}
	}

	for r := 0; r < n; r++ {
		rs := &rankState{id: r, program: job.Ranks[r], pc: -1, pendingExchange: -1, wakeAt: -1}
		rt.ranks = append(rt.ranks, rs)
	}
	rt.remaining = n
	for _, rs := range rt.ranks {
		proc, err := rt.kern.Spawn(fmt.Sprintf("%s-rank%d", job.Name, rs.id), pl.CPU[rs.id],
			isa.Empty{}, pl.Prio[rs.id])
		if err != nil {
			return nil, err
		}
		rs.proc = proc
		rt.byPID[proc.PID] = rs
	}
	if !cfg.ColdCaches {
		rt.warmCaches()
	}

	// Move every rank into its first phase before the chip runs: the
	// placeholder empty stream is never observed.
	for _, rs := range rt.ranks {
		rt.advance(rs)
	}

	for rt.remaining > 0 && rt.mach.Cycle() < rt.cfg.MaxCycles {
		// The per-iteration target below is capped at one million cycles,
		// so this check bounds the cancellation latency to one quantum.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mpisim: job %q cancelled at cycle %d: %w", job.Name, rt.mach.Cycle(), err)
		}
		target := rt.cfg.MaxCycles
		if w := rt.nextWake(); w >= 0 && w < target {
			target = w
		}
		if c := rt.mach.Cycle() + 1_000_000; c < target {
			target = c
		}
		if target <= rt.mach.Cycle() {
			target = rt.mach.Cycle() + 1
		}
		rt.mach.RunUntil(target)
		rt.fireWakeups()
		if rt.ffAnchor {
			rt.ffAnchor = false
			if rt.ff != nil && rt.remaining > 0 {
				rt.ffOnAnchor()
			}
		}
	}
	if rt.remaining > 0 {
		return nil, fmt.Errorf("mpisim: job %q exceeded MaxCycles=%d (deadlock or undersized budget)",
			job.Name, rt.cfg.MaxCycles)
	}
	rt.tr.Finish(rt.mach.Cycle())

	res := &Result{
		Cycles:     rt.mach.Cycle(),
		Seconds:    rt.mach.Seconds(rt.mach.Cycle()),
		Imbalance:  rt.tr.Imbalance(),
		Trace:      rt.tr,
		Iterations: rt.iteration,
	}
	if rt.ff != nil {
		res.SkippedCycles = rt.ff.cycles
	}
	for _, rs := range rt.ranks {
		st := rt.tr.RankStats(rs.id)
		cpu := pl.CPU[rs.id]
		core, thr := topo.CoreOf(cpu), topo.ThreadOf(cpu)
		res.Ranks = append(res.Ranks, RankResult{
			CPU:          cpu,
			Core:         core,
			Chip:         topo.ChipOf(cpu),
			Prio:         pl.Prio[rs.id],
			ComputePct:   st.Pct(trace.Compute),
			SyncPct:      st.Pct(trace.Sync),
			CommPct:      st.Pct(trace.Comm),
			Instructions: rt.mach.Stats(core, thr).Completed,
		})
	}
	return res, nil
}

// warmCaches touches each rank's working sets (compute loads and its spin
// loop's progress-engine footprint) into the hierarchy, bounded per load
// so that deliberately cache-busting kernels (Mem) still miss.
func (rt *runtime) warmCaches() {
	const warmCap = 1 << 20 // bytes per load
	const line = 128
	for _, rs := range rt.ranks {
		core := rt.topo.CoreOf(rt.pl.CPU[rs.id])
		warm := func(l workload.Load) {
			base := l.Base
			if base == 0 {
				base = rankBase(rs.id)
			}
			fp := l.EffectiveFootprint()
			if fp > warmCap {
				fp = warmCap
			}
			for off := int64(0); off < fp; off += line {
				rt.mach.TouchMemory(core, base+uint64(off))
			}
		}
		for _, ph := range rs.program {
			if ph.Kind == PhaseCompute {
				warm(ph.Load)
			}
		}
		warm(spinLoad(rs.id))
	}
}

// nextWake returns the earliest pending wakeup cycle, or -1.
func (rt *runtime) nextWake() int64 {
	w := int64(-1)
	for _, rs := range rt.ranks {
		if rs.wakeAt >= 0 && (w < 0 || rs.wakeAt < w) {
			w = rs.wakeAt
		}
	}
	return w
}

// fireWakeups completes exchanges whose transfer finished.
func (rt *runtime) fireWakeups() {
	now := rt.mach.Cycle()
	for _, rs := range rt.ranks {
		if rs.wakeAt >= 0 && rs.wakeAt <= now {
			rs.wakeAt = -1
			rs.pendingExchange = -1
			rt.advance(rs)
		}
	}
}

// onStreamEnd fires when a rank's compute phase finishes.
func (rt *runtime) onStreamEnd(p *oskernel.Process) {
	rs, ok := rt.byPID[p.PID]
	if !ok || rs.finished {
		return
	}
	rt.advance(rs)
}

// advance moves a rank to its next phase.
func (rt *runtime) advance(rs *rankState) {
	rs.pc++
	rt.startPhase(rs)
}

// startPhase begins the phase at rs.pc.
func (rt *runtime) startPhase(rs *rankState) {
	now := rt.mach.Cycle()
	if rs.inCompute {
		rs.computeAcc += now - rs.computeStart
		rs.inCompute = false
	}
	if rs.pc >= len(rs.program) {
		rs.finished = true
		rt.tr.Enter(rs.id, trace.Idle, now)
		rt.kern.Exit(rs.proc)
		rt.remaining--
		if rt.remaining == 0 {
			rt.mach.Halt()
		}
		return
	}
	ph := rs.program[rs.pc]
	switch ph.Kind {
	case PhaseCompute:
		if rs.id == 0 && rt.ff != nil {
			// Phase-skip anchor: rank 0 starting a compute phase is the
			// once-per-iteration event the engine snapshots at.  Halting
			// forces a main-loop boundary at this exact cycle, so
			// snapshots always sample the same point of the iteration
			// orbit (halting does not perturb machine state).
			rt.ffAnchor = true
			rt.mach.Halt()
		}
		rt.tr.Enter(rs.id, trace.Compute, now)
		rs.inCompute = true
		rs.computeStart = now
		load := ph.Load
		if rt.cfg.LoadDrift != nil {
			load = rt.cfg.LoadDrift(rs.id, rs.computeIdx, load)
			if load.Kind != workload.Spin && load.N < 1 {
				load.N = 1
			}
		}
		rs.computeIdx++
		if load.Base == 0 {
			load.Base = rankBase(rs.id)
		}
		if load.Seed == 0 {
			load.Seed = uint64(rs.id)*977 + uint64(rs.pc) + 1
		}
		rt.kern.SetUserStream(rs.proc, load.Stream())
	case PhaseBarrier:
		rt.tr.Enter(rs.id, trace.Sync, now)
		rt.kern.SetUserStream(rs.proc, spinLoad(rs.id).Stream())
		rt.barrierWaiting = append(rt.barrierWaiting, rs.id)
		if rt.cfg.OnIteration != nil {
			rt.barrierArrival = append(rt.barrierArrival, now)
		}
		if len(rt.barrierWaiting) == rt.activeRanks() {
			rt.releaseBarrier()
		}
	case PhaseExchange:
		rt.tr.Enter(rs.id, trace.Sync, now)
		rt.kern.SetUserStream(rs.proc, spinLoad(rs.id).Stream())
		rs.exchangeArrivals = append(rs.exchangeArrivals, now)
		rs.pendingExchange = len(rs.exchangeArrivals) - 1
		rt.checkExchanges()
	default:
		panic(fmt.Sprintf("mpisim: unknown phase kind %d", ph.Kind))
	}
}

// activeRanks counts unfinished ranks (a finished rank no longer joins
// barriers — programs should be barrier-aligned, but this keeps truncated
// programs from deadlocking the rest).
func (rt *runtime) activeRanks() int {
	n := 0
	for _, rs := range rt.ranks {
		if !rs.finished {
			n++
		}
	}
	return n
}

// releaseBarrier opens the barrier and advances all waiting ranks.  The
// arrival bookkeeping is only materialized when an OnIteration hook will
// consume it — the release itself is on the simulator's hot path.
func (rt *runtime) releaseBarrier() {
	waiting := rt.barrierWaiting
	arrivals := rt.barrierArrival
	rt.barrierWaiting = nil
	rt.barrierArrival = nil
	if rt.cfg.OnIteration != nil {
		arrival := make([]int64, len(rt.ranks))
		for i, id := range waiting {
			arrival[id] = arrivals[i]
		}
		pids := make([]int, len(rt.ranks))
		comp := make([]int64, len(rt.ranks))
		for _, rs := range rt.ranks {
			pids[rs.id] = rs.proc.PID
			comp[rs.id] = rs.computeAcc
		}
		rt.cfg.OnIteration(IterationEvent{
			Index:         rt.iteration,
			Arrival:       arrival,
			ComputeCycles: comp,
			Release:       rt.mach.Cycle(),
			Kernel:        rt.kern,
			PIDs:          pids,
		})
	}
	for _, rs := range rt.ranks {
		rs.computeAcc = 0
	}
	rt.iteration++
	for _, id := range waiting {
		rt.advance(rt.ranks[id])
	}
}

// checkExchanges resolves pending exchanges whose peers have all arrived:
// the n-th exchange of a rank matches the n-th exchange of each peer.
func (rt *runtime) checkExchanges() {
	for _, rs := range rt.ranks {
		n := rs.pendingExchange
		if n < 0 || rs.wakeAt >= 0 {
			continue
		}
		ph := rs.program[rs.pc]
		ready := rs.exchangeArrivals[n]
		ok := true
		for _, p := range ph.Peers {
			peer := rt.ranks[p]
			if len(peer.exchangeArrivals) <= n {
				ok = false
				break
			}
			if a := peer.exchangeArrivals[n]; a > ready {
				ready = a
			}
		}
		if !ok {
			continue
		}
		// All peers posted: the transfer itself now takes the wire
		// latency; the rank shows as communicating.
		lat := int64(0)
		for _, p := range ph.Peers {
			l := rt.cfg.CommLatency(rt.pl.CPU[rs.id], rt.pl.CPU[p], ph.Bytes)
			if l > lat {
				lat = l
			}
		}
		rs.commAt = ready
		if now := rt.mach.Cycle(); now > rs.commAt {
			rs.commAt = now
		}
		rt.tr.Enter(rs.id, trace.Comm, rs.commAt)
		rs.wakeAt = rs.commAt + lat
		// Interrupt the chip's current run so the main loop re-targets
		// to this wakeup instead of overshooting it.
		rt.mach.Halt()
	}
}
