package smtbalance

import (
	"context"
	"fmt"
	"io"
	"iter"
	"strings"
)

// MatrixSpec describes an evaluation matrix: every policy evaluated on
// every scenario on every topology.  The paper compares balancers on a
// handful of hand-built cases; the matrix is that comparison
// industrialized — "characterize any balancer on any imbalance shape".
//
//mtlint:cachekey matrix
type MatrixSpec struct {
	// Scenarios is the imbalance-shape axis (at least one).
	Scenarios []Scenario
	// Policies is the balancer axis (at least one).  Every policy must
	// implement PolicyBinder (cell evaluation fans policies through the
	// sweep pool, so each run needs a fresh bound instance) and policy
	// identities must be distinct.  If no policy has identity "static",
	// StaticPolicy is prepended automatically: it is the control every
	// cell's speedups are normalized against.
	Policies []Policy
	// Topologies is the machine axis; nil means the default 1×2×2.
	Topologies []Topology
}

// MatrixOptions tunes an evaluation.
type MatrixOptions struct {
	// Workers caps concurrent simulator runs within a cell; 0 means one
	// per CPU, 1 forces serial evaluation.  Results are identical for
	// every value.
	Workers int
	// Progress, if set, observes cell completions with (done, total)
	// cell counts.
	Progress func(done, total int)
}

// MatrixEntry is one (topology, scenario, policy) evaluation.
type MatrixEntry struct {
	// Topology is the cell's topology string ("1x2x2").
	Topology string
	// Scenario is the cell's canonical ScenarioID.
	Scenario string
	// Policy is the entry's canonical PolicyID.
	Policy string
	// Cycles, Seconds and ImbalancePct are the run's metrics, with the
	// job pinned in order at medium priority — the pure policy
	// comparison, where only online balancing differentiates entries.
	Cycles int64
	// Seconds is the run's simulated wall-clock time.
	Seconds float64
	// ImbalancePct is the paper's max-sync-% imbalance metric.
	ImbalancePct float64
	// Speedup is the entry's score: the cell's StaticPolicy execution
	// time divided by this entry's.  Normalizing every cell against its
	// own static control makes the score comparable across scenarios
	// and topologies — 1.1 means "this policy beats no-balancing by 10%
	// here", whatever the cell's absolute scale.  The static entry
	// itself scores exactly 1.
	Speedup float64
}

// MatrixResult is a finished evaluation matrix.
type MatrixResult struct {
	// Entries holds one entry per (topology, scenario, policy), in spec
	// order — topology-major, then scenario, then policy — so the
	// rendering is deterministic whatever the worker count.
	Entries []MatrixEntry
	// Cells counts the (topology, scenario) cells evaluated.
	Cells int
}

// WriteCSV writes the matrix with a header row:
// topology,scenario,policy,cycles,seconds,imbalance_pct,speedup_vs_static.
// Scenario and policy identities contain commas, so both columns are
// RFC 4180-quoted.
func (r *MatrixResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "topology,scenario,policy,cycles,seconds,imbalance_pct,speedup_vs_static"); err != nil {
		return err
	}
	for _, e := range r.Entries {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%d,%.9f,%.4f,%.6f\n",
			e.Topology, csvQuote(e.Scenario), csvQuote(e.Policy),
			e.Cycles, e.Seconds, e.ImbalancePct, e.Speedup)
		if err != nil {
			return err
		}
	}
	return nil
}

// csvQuote renders a field RFC 4180-quoted (inner quotes doubled).
func csvQuote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Matrix is a reusable evaluation-matrix engine: it owns one Machine
// per topology it has seen (each with its own result cache) and a
// scenario-aware cell cache, so re-evaluating an overlapping spec — a
// service answering repeated matrix requests, a sweep extended by one
// more policy list — replays finished cells from memory.  A Matrix is
// safe for concurrent use.
//
// Both stores are bounded with FIFO eviction, like the Machine result
// cache: a long-lived server answering matrix requests with ever-new
// scenario parameters or topologies must plateau, not grow without
// bound.  Eviction only costs a re-evaluation, never correctness.
type Matrix struct {
	// cells memoizes finished cells by matrixCellKey: an identical
	// concurrent request shares the one evaluation in progress (and
	// the cell's per-point runs coalesce through the Machine's own
	// cache as well).
	cells memo[cacheKey, []MatrixEntry]
	// machines holds one Machine per topology.
	machines memo[Topology, *Machine]
}

// Engine bounds: a machine holds a full result cache (potentially tens
// of MB of traces), a cell a handful of entries.
const (
	matrixMachineCap = 16
	matrixCellCap    = 1024
)

// NewMatrix returns an empty engine.
func NewMatrix() *Matrix {
	return &Matrix{
		cells:    memo[cacheKey, []MatrixEntry]{limit: matrixCellCap},
		machines: memo[Topology, *Machine]{limit: matrixMachineCap},
	}
}

// CellStats reports the engine's cell-cache counters: cells served
// without a fresh evaluation (from memory, or by sharing an identical
// evaluation in flight), cells evaluated, and cells currently held.
// Each cell lookup counts once, by how it was finally answered, so an
// evaluation whose leader was cancelled and then retried by a waiting
// request counts two evaluations.
func (mx *Matrix) CellStats() (hits, misses int64, cells int) {
	st, held := mx.cells.stats()
	return st.Hits + st.Coalesced, st.Misses - st.Coalesced, held
}

// resolveSpec validates the spec and returns the effective policy list
// (static control first when it had to be added) and topology list —
// the identities matrixCellKey then hashes, so every MatrixSpec axis
// flows into the cell key through here.
//
//mtlint:cachekey-hasher matrix
func resolveSpec(spec MatrixSpec) ([]Policy, []Topology, error) {
	if len(spec.Scenarios) == 0 {
		return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Scenarios is empty; ParseScenario(\"uniform\") is the minimal axis")
	}
	for i, sc := range spec.Scenarios {
		if sc == nil {
			return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Scenarios[%d] is nil", i)
		}
	}
	if len(spec.Policies) == 0 {
		return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Policies is empty; StaticPolicy{} is the minimal axis")
	}
	pols := make([]Policy, 0, len(spec.Policies)+1)
	seen := make(map[string]bool)
	hasStatic := false
	for i, pol := range spec.Policies {
		if pol == nil {
			return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Policies[%d] is nil; use StaticPolicy{} for the no-balancing control", i)
		}
		id := PolicyID(pol)
		if seen[id] {
			return nil, nil, fmt.Errorf("smtbalance: duplicate policy %q in MatrixSpec.Policies", id)
		}
		seen[id] = true
		if id == PolicyID(StaticPolicy{}) {
			hasStatic = true
		}
		pols = append(pols, pol)
	}
	if !hasStatic {
		pols = append([]Policy{StaticPolicy{}}, pols...)
	}
	topos := spec.Topologies
	if len(topos) == 0 {
		topos = []Topology{DefaultTopology()}
	}
	norm := make([]Topology, len(topos))
	for i, t := range topos {
		norm[i] = t.normalized()
		if err := norm[i].Validate(); err != nil {
			return nil, nil, fmt.Errorf("smtbalance: MatrixSpec.Topologies[%d]: %w", i, err)
		}
	}
	return pols, norm, nil
}

// evalCell evaluates one (topology, scenario) cell: every policy over
// the scenario's job, pinned in order at medium priority, fanned
// through the sweep worker pool, scored against the static control.
func (mx *Matrix) evalCell(ctx context.Context, topo Topology, sc Scenario, pols []Policy, workers int) ([]MatrixEntry, error) {
	m, err := mx.machines.Do(ctx, topo, func() (*Machine, error) {
		return NewMachine(&Options{Topology: topo})
	})
	if err != nil {
		return nil, err
	}
	job, err := sc.Job(topo)
	if err != nil {
		return nil, err
	}
	sw, err := m.SweepAll(ctx, job, Space{
		FixPairing: true,
		Priorities: []Priority{PriorityMedium},
		Policies:   pols,
	}, &SweepOptions{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("smtbalance: matrix cell (%s, %s): %w", topo, ScenarioID(sc), err)
	}
	byPolicy := make(map[string]SweepEntry, len(sw.Entries))
	for _, e := range sw.Entries {
		byPolicy[e.Policy] = e
	}
	static, ok := byPolicy[PolicyID(StaticPolicy{})]
	if !ok {
		return nil, fmt.Errorf("smtbalance: matrix cell (%s, %s): sweep returned no static control", topo, ScenarioID(sc))
	}
	entries := make([]MatrixEntry, 0, len(pols))
	for _, pol := range pols {
		e, ok := byPolicy[PolicyID(pol)]
		if !ok {
			return nil, fmt.Errorf("smtbalance: matrix cell (%s, %s): policy %q missing from sweep ranking", topo, ScenarioID(sc), PolicyID(pol))
		}
		entries = append(entries, MatrixEntry{
			Topology:     topo.String(),
			Scenario:     ScenarioID(sc),
			Policy:       e.Policy,
			Cycles:       e.Cycles,
			Seconds:      e.Seconds,
			ImbalancePct: e.ImbalancePct,
			Speedup:      float64(static.Cycles) / float64(e.Cycles),
		})
	}
	return entries, nil
}

// Eval evaluates the matrix and streams its entries as an iterator of
// (entry, error) pairs, in spec order (topology-major, then scenario,
// then policy — the static control first when it was added implicitly).
// Entries stream cell by cell as each (topology, scenario) cell
// finishes; cells replayed from the engine's cache stream immediately.
// On error the iterator yields exactly one (MatrixEntry{}, err) pair;
// cancelling ctx aborts the evaluation promptly.
func (mx *Matrix) Eval(ctx context.Context, spec MatrixSpec, opts *MatrixOptions) iter.Seq2[MatrixEntry, error] {
	return func(yield func(MatrixEntry, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		if opts == nil {
			opts = &MatrixOptions{}
		}
		pols, topos, err := resolveSpec(spec)
		if err != nil {
			yield(MatrixEntry{}, err)
			return
		}
		polIDs := make([]string, len(pols))
		for i, pol := range pols {
			polIDs[i] = PolicyID(pol)
		}
		total := len(topos) * len(spec.Scenarios)
		done := 0
		for _, topo := range topos {
			for _, sc := range spec.Scenarios {
				key := matrixCellKey(topo, ScenarioID(sc), polIDs)
				entries, err := mx.cells.Do(ctx, key, func() ([]MatrixEntry, error) {
					return mx.evalCell(ctx, topo, sc, pols, opts.Workers)
				})
				if err != nil {
					yield(MatrixEntry{}, err)
					return
				}
				done++
				if opts.Progress != nil {
					opts.Progress(done, total)
				}
				for _, e := range entries {
					if !yield(e, nil) {
						return
					}
				}
			}
		}
	}
}

// EvalAll is Eval collected into a MatrixResult.
func (mx *Matrix) EvalAll(ctx context.Context, spec MatrixSpec, opts *MatrixOptions) (*MatrixResult, error) {
	out := &MatrixResult{}
	for e, err := range mx.Eval(ctx, spec, opts) {
		if err != nil {
			return nil, err
		}
		out.Entries = append(out.Entries, e)
	}
	topos := len(spec.Topologies)
	if topos == 0 {
		topos = 1
	}
	out.Cells = topos * len(spec.Scenarios)
	return out, nil
}
