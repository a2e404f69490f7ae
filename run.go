package smtbalance

import (
	"context"
	"fmt"
	"io"

	"repro/internal/hwpri"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Phase is one step of a rank's program.
type Phase struct {
	inner mpisim.Phase
}

// Compute returns a compute phase executing n instructions of the named
// kernel kind.  Kinds: "fpu", "fxu", "l1", "l2", "mem", "branchy",
// "mixed" (see internal/workload).  Unknown kinds panic; use ParseKind to
// validate user input first.
func Compute(kind string, n int64) Phase {
	k, err := workload.ParseKind(kind)
	if err != nil {
		panic(err)
	}
	return Phase{mpisim.Compute(workload.Load{Kind: k, N: n})}
}

// ComputeSized is Compute with an explicit data footprint in bytes,
// overriding the kernel kind's default working-set size.
func ComputeSized(kind string, n, footprint int64) Phase {
	k, err := workload.ParseKind(kind)
	if err != nil {
		panic(err)
	}
	return Phase{mpisim.Compute(workload.Load{Kind: k, N: n, Footprint: footprint})}
}

// KernelKinds lists the valid Compute kernel names.
func KernelKinds() []string {
	return []string{"fpu", "fxu", "l1", "l2", "mem", "branchy", "mixed"}
}

// ParseKind validates a kernel kind name.
func ParseKind(kind string) error {
	_, err := workload.ParseKind(kind)
	return err
}

// Barrier returns a global synchronization phase (mpi_barrier).
func Barrier() Phase { return Phase{mpisim.Barrier()} }

// Exchange returns a neighbour-exchange phase: non-blocking sends/receives
// of the given volume to each peer rank, followed by a waitall.
func Exchange(bytes int64, peers ...int) Phase {
	return Phase{mpisim.Exchange(bytes, peers...)}
}

// Job is an MPI-style application: one phase program per rank.
type Job struct {
	// Name labels the job in diagnostics.
	Name string
	// Ranks holds each rank's program.
	Ranks [][]Phase
}

// Placement pins ranks to the machine's logical CPUs.  CPUs 0 and 1 are
// the two SMT contexts of core 0; CPUs 2 and 3 of core 1; and so on
// chip-major across the topology — so ranks on CPUs 2k and 2k+1 always
// share a core and compete for its decode cycles.  On the default
// topology the valid CPUs are 0..3; Options.Topology widens the range.
// Use Topology.CPUOf / ParsePlacement to build placements from
// (chip, core, context) triples.
type Placement struct {
	// CPU maps rank -> logical CPU (0..Topology.Contexts()-1).
	CPU []int
	// Priority maps rank -> hardware thread priority.
	Priority []Priority
}

// PinInOrder pins rank i to CPU i at medium priority — the paper's
// reference configuration (Case A).  The placement is topology-agnostic:
// Machine.Run validates it against the machine's topology and returns a
// descriptive error if n exceeds that machine's context count.  To
// validate eagerly against a known machine, use Topology.PinInOrder.
func PinInOrder(n int) Placement {
	pl := Placement{CPU: make([]int, n), Priority: make([]Priority, n)}
	for i := range pl.CPU {
		pl.CPU[i] = i
		pl.Priority[i] = PriorityMedium
	}
	return pl
}

// validate checks the placement against a topology, catching the
// out-of-range and double-pin mistakes up front with errors that name
// the topology instead of failing deep inside the simulator.
func (pl Placement) validate(t Topology) error {
	t = t.normalized()
	// A partially-specified topology (e.g. only Chips set) must fail
	// with its own descriptive error, not a zero-context machine.
	if err := t.Validate(); err != nil {
		return fmt.Errorf("smtbalance: invalid Options.Topology: %w", err)
	}
	if len(pl.CPU) != len(pl.Priority) {
		return fmt.Errorf("smtbalance: placement maps %d CPUs but %d priorities", len(pl.CPU), len(pl.Priority))
	}
	seen := make(map[int]bool)
	for r, cpu := range pl.CPU {
		if cpu < 0 || cpu >= t.Contexts() {
			return fmt.Errorf("smtbalance: rank %d is pinned to CPU %d, but the %s topology has only %d hardware contexts (CPUs 0..%d); grow Options.Topology (e.g. Chips: %d) or shrink the job",
				r, cpu, t, t.Contexts(), t.Contexts()-1, cpu/(t.CoresPerChip*t.SMTWays)+1)
		}
		if seen[cpu] {
			return fmt.Errorf("smtbalance: CPU %d is pinned twice", cpu)
		}
		seen[cpu] = true
	}
	return nil
}

// IterationStats is delivered to Options.OnIteration at every barrier
// release.
type IterationStats struct {
	// Index counts barrier releases from 0.
	Index int
	// ComputeCycles is each rank's computation time since the previous
	// release.
	ComputeCycles []int64
	// ArrivalCycle is each rank's barrier arrival time.
	ArrivalCycle []int64
	// ReleaseCycle is when the barrier opened.
	ReleaseCycle int64
}

// Options tunes a run.  The zero value (or nil) is the paper's
// environment: the patched kernel with 1000 Hz-equivalent timer ticks,
// warmed caches, no balancer, the single-chip machine.
//
//mtlint:cachekey run
type Options struct {
	// Topology sizes the machine as chips × cores-per-chip × SMT ways.
	// The zero value is the paper's 1×2×2 OpenPower 710 (4 contexts);
	// e.g. Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2} runs 8-rank
	// jobs.  Every paper table assumes the default.
	Topology Topology
	// VanillaKernel removes the paper's kernel patch: priorities decay
	// to medium at the first interrupt and the procfs interface is gone.
	VanillaKernel bool
	// NoOSNoise disables timer ticks (for exactly-reproducible micro
	// experiments).
	NoOSNoise bool
	// ColdCaches skips the steady-state cache pre-warming.
	ColdCaches bool
	// Policy attaches an online balancing policy: at every barrier
	// release the policy observes the iteration and its requested
	// priority rewrites are applied through the patched kernel's procfs
	// interface (so a VanillaKernel run makes every policy inert).  See
	// the Policy interface, the built-ins (StaticPolicy, PaperDynamic,
	// HierarchicalPolicy, FeedbackPolicy) and ParsePolicy.
	Policy Policy
	// OnIteration, if set, is called at every barrier release.
	//
	//mtlint:cachekey-exempt presence disables result caching entirely (Machine.Run), so no cached entry can ever alias a hooked run
	OnIteration func(IterationStats)
	// LoadDrift, if set, rescales each compute phase's instruction
	// count as its rank enters it: before rank r starts its i-th
	// compute phase (counting from 0) the hook maps the phase's
	// declared count n to the count actually executed.  It is the
	// runtime alternative to a Scenario's precomputed per-iteration
	// loads, for open-ended or adaptive drifts not known when the job
	// is built.  Returned values below 1 are clamped to 1.  Like
	// OnIteration, LoadDrift disables result caching for Run calls and
	// is rejected in sweeps; the hook must be deterministic for runs to
	// be reproducible.
	//
	//mtlint:cachekey-exempt presence disables result caching entirely, like OnIteration; an arbitrary function has no hashable identity
	LoadDrift func(rank, phase int, n int64) int64
	// MaxCycles aborts runs that stop progressing (0 = generous default).
	MaxCycles int64
	// Exact forces pure per-cycle execution, disabling the phase-skip
	// fast path that detects steady-state iterations and advances across
	// them analytically.  Results are byte-identical either way — the
	// fast path only engages when a repetition is provably exact — so
	// the flag exists for benchmarking the simulator itself and as a
	// diagnostic escape hatch, not for accuracy.  Runs with OnIteration
	// or LoadDrift hooks are implicitly exact.
	//
	//mtlint:cachekey-exempt selects between execution strategies with byte-identical results, so both spellings must share cache entries (envJobKey audit)
	Exact bool
}

// RankSummary is one rank's outcome.
type RankSummary struct {
	// CPU, Core and Chip locate the rank on the machine (Core is the
	// global chip-major core index; Chip is 0 on the default topology).
	CPU, Core, Chip int
	// Priority is the rank's launch priority.
	Priority Priority
	// ComputePct, SyncPct and CommPct split the rank's time between
	// useful work, busy-waiting and communication.
	ComputePct, SyncPct, CommPct float64
	// Instructions counts completed instructions on the rank's context.
	Instructions int64
}

// Result is a finished run.
type Result struct {
	// Seconds is the execution time on the simulated 1.65 GHz clock.
	Seconds float64
	// Cycles is the execution time in processor cycles.
	Cycles int64
	// ImbalancePct is the paper's imbalance metric: the maximum
	// percentage of time any rank spent waiting.
	ImbalancePct float64
	// Ranks summarizes each rank.
	Ranks []RankSummary
	// Iterations is the number of barrier releases.
	Iterations int
	// BalancerMoves counts the priority rewrites the run's balancing
	// policy applied (writes that actually changed a rank's priority;
	// zero without a policy or on a vanilla kernel, where the procfs
	// path does not exist).
	BalancerMoves int
	// Policy is the canonical identity (PolicyID) of the balancing
	// policy that ran, "" if none was attached.
	Policy string
	// SkippedCycles counts simulated cycles the phase-skip fast path
	// advanced analytically instead of ticking through (see
	// Options.Exact).  Purely diagnostic: results are byte-identical
	// whatever its value.  Zero when the run executed under
	// Options.Exact or with OnIteration/LoadDrift hooks; a result served
	// from a Machine's cache reports the value of the run that populated
	// the entry (the cache deliberately keys both execution modes
	// together).
	SkippedCycles int64

	tr *trace.Trace
}

// Timeline renders the run as an ASCII timeline in the style of the
// paper's Figures 2-4: '█' compute, '░' waiting, '▓' communication.
func (r *Result) Timeline(width int) string { return r.tr.Render(width) }

// WriteTraceCSV writes the state intervals as CSV (rank,state,from,to).
func (r *Result) WriteTraceCSV(w io.Writer) error { return r.tr.WriteCSV(w) }

// WriteParaver writes a PARAVER-like .prv state-record trace.
func (r *Result) WriteParaver(w io.Writer) error { return r.tr.WritePRV(w) }

// inner converts the public job to its simulator form.  The conversion
// allocates fresh slices, so the result is safe to share across the
// concurrent runs of a sweep.
func (job Job) inner() *mpisim.Job {
	out := &mpisim.Job{Name: job.Name}
	for _, prog := range job.Ranks {
		var p mpisim.Program
		for _, ph := range prog {
			p = append(p, ph.inner)
		}
		out.Ranks = append(out.Ranks, p)
	}
	return out
}

// inner converts the public placement, validating the priorities.
func (pl Placement) inner() (mpisim.Placement, error) {
	ipl := mpisim.Placement{CPU: pl.CPU}
	for _, p := range pl.Priority {
		if !p.Valid() {
			return mpisim.Placement{}, fmt.Errorf("smtbalance: invalid priority %d", p)
		}
		ipl.Prio = append(ipl.Prio, hwpri.Priority(p))
	}
	return ipl, nil
}

// simConfig builds the simulator configuration the options describe,
// without the per-run OnIteration wiring.
func (opts *Options) simConfig() mpisim.Config {
	kcfg := oskernel.DefaultConfig()
	kcfg.Patched = !opts.VanillaKernel
	if opts.NoOSNoise {
		kcfg.TickPeriod = 0
	}
	cfg := mpisim.Config{
		Chip:       power5.DefaultConfig(),
		Topology:   opts.Topology.inner(),
		Kernel:     kcfg,
		KernelSet:  true,
		MaxCycles:  opts.MaxCycles,
		ColdCaches: opts.ColdCaches,
		Exact:      opts.Exact,
	}
	if drift := opts.LoadDrift; drift != nil {
		cfg.LoadDrift = func(rank, idx int, load workload.Load) workload.Load {
			load.N = drift(rank, idx, load.N)
			return load
		}
	}
	return cfg
}

// resolvePolicy returns the run's balancing policy (nil means none).
// It is what envJobKey hashes, so Options.Policy flows into the cache
// key through here.
//
//mtlint:cachekey-hasher run
func (opts *Options) resolvePolicy() Policy { return opts.Policy }

// policyCacheable reports whether runs under pol may be memoized: a nil
// policy is trivially deterministic, and a PolicyBinder starts every run
// from a fresh bound instance.  A bare Policy may carry hidden cross-run
// state, so its runs are never cached.
func policyCacheable(pol Policy) bool {
	if pol == nil {
		return true
	}
	_, ok := pol.(PolicyBinder)
	return ok
}

// stats converts the simulator's iteration event to the public form.
func stats(ev mpisim.IterationEvent) IterationStats {
	return IterationStats{
		Index:         ev.Index,
		ComputeCycles: ev.ComputeCycles,
		ArrivalCycle:  ev.Arrival,
		ReleaseCycle:  ev.Release,
	}
}

// policyHook installs pol's observe→apply loop (and the caller's
// OnIteration callback, chained after it) as cfg.OnIteration.  Every
// action the policy returns is validated and applied through the
// kernel's procfs path — the only mechanism by which any balancer may
// act, so VanillaKernel runs leave all actions inert, exactly as on real
// hardware without the paper's patch.  The returned counter accumulates
// applied writes that changed a rank's priority (Result.BalancerMoves);
// it is nil when neither hook is needed.
func policyHook(cfg *mpisim.Config, pol Policy, topo Topology, pl Placement, onIter func(IterationStats)) *int {
	if pol == nil && onIter == nil {
		return nil
	}
	run := pol
	if b, ok := pol.(PolicyBinder); ok {
		run = b.Bind(topo, pl)
	}
	moves := new(int)
	cur := append([]Priority(nil), pl.Priority...)
	cfg.OnIteration = func(ev mpisim.IterationEvent) {
		if run != nil {
			for _, act := range run.Observe(stats(ev)) {
				if act.Rank < 0 || act.Rank >= len(cur) || !act.Priority.Valid() {
					continue // a buggy custom policy must not crash the run
				}
				if !ev.ApplyPriority(act.Rank, hwpri.Priority(act.Priority)) {
					continue
				}
				if cur[act.Rank] != act.Priority {
					cur[act.Rank] = act.Priority
					*moves++
				}
			}
		}
		if onIter != nil {
			onIter(stats(ev))
		}
	}
	return moves
}

// runSim executes one simulation under the options with the resolved
// balancing policy, uncached.  The placement must already be validated
// against opts.Topology.
func runSim(ctx context.Context, job Job, pl Placement, opts *Options, pol Policy) (*Result, error) {
	inner := job.inner()
	ipl, err := pl.inner()
	if err != nil {
		return nil, err
	}
	cfg := opts.simConfig()
	moves := policyHook(&cfg, pol, opts.Topology, pl, opts.OnIteration)
	res, err := mpisim.RunCtx(ctx, inner, ipl, cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Seconds:       res.Seconds,
		Cycles:        res.Cycles,
		ImbalancePct:  res.Imbalance,
		Iterations:    res.Iterations,
		Policy:        PolicyID(pol),
		SkippedCycles: res.SkippedCycles,
		tr:            res.Trace,
	}
	if moves != nil {
		out.BalancerMoves = *moves
	}
	for _, rr := range res.Ranks {
		out.Ranks = append(out.Ranks, RankSummary{
			CPU:          rr.CPU,
			Core:         rr.Core,
			Chip:         rr.Chip,
			Priority:     Priority(rr.Prio),
			ComputePct:   rr.ComputePct,
			SyncPct:      rr.SyncPct,
			CommPct:      rr.CommPct,
			Instructions: rr.Instructions,
		})
	}
	return out, nil
}
