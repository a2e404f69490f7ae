// Package serve exposes one shared smtbalance.Machine over an HTTP JSON
// API — the first serving surface toward the roadmap's production-scale
// system.  All requests share the Machine's deterministic result cache,
// so identical configurations submitted by different clients are served
// from memory, and every simulation runs under the request context, so a
// disconnected client cancels its run instead of leaking simulator time.
//
// Endpoints:
//
//	GET  /healthz    liveness + topology + cache statistics
//	POST /v1/run     run one job/placement, JSON in, JSON out
//	POST /v1/sweep   rank a configuration space, streamed as NDJSON
//	                 (one ranked entry per chunk, best first, then a
//	                 terminal {"done":true,...} record)
//	POST /v1/matrix  evaluate a policy × scenario × topology matrix,
//	                 streamed as NDJSON cell by cell, then a terminal
//	                 {"done":true,...} record; cells are cached across
//	                 requests in a shared Matrix engine
//
// The wire schema is deliberately strict: unknown fields are rejected so
// that a typo ("barier") fails loudly instead of simulating the wrong
// job.
//
// Overload: simulation endpoints run behind an admission gate — at most
// Config.MaxInFlight simulations execute concurrently, at most
// Config.MaxQueue more wait, and everything beyond that is shed
// immediately with 429 and a Retry-After header rather than queued
// without bound.  Identical concurrent requests coalesce inside the
// Machine (singleflight on the cache key), so a thundering herd of one
// popular configuration costs one simulation plus one gate slot per
// request.  Streamed responses carry a rolling write deadline
// (Config.WriteTimeout per write), so a stalled client frees its slot
// instead of holding it for the full request timeout.
//
// Memory: cached run results keep their full trace, so the server's
// resident set is bounded by the Machine's entry-capped cache times the
// largest accepted job — Config.MaxRanks and Config.MaxPhases bound the
// per-entry trace size, and Machine.ClearCache releases everything if an
// operator needs to shed memory without restarting.  The matrix
// engine's stores are entry-capped the same way (cells and
// per-topology machines evict FIFO), and MaxRanks bounds the machines
// a matrix request may ask for, so /v1/matrix cannot outgrow the cap
// either.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	smtbalance "repro"
)

// Config bounds what one request may ask of the shared machine.  The
// zero value of each field selects the default; the defaults keep a
// public endpoint from being wedged by one huge request.
type Config struct {
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxRanks caps a job's rank count (default 64; the topology's
	// context count caps it further anyway).
	MaxRanks int
	// MaxPhases caps one rank's phase count (default 256).
	MaxPhases int
	// MaxComputeN caps one compute phase's instruction count (default
	// 10M — about the scale of the paper's reduced workloads).
	MaxComputeN int64
	// Timeout bounds one request's simulation wall time (default 120s);
	// it is enforced through the Machine's context cancellation.
	Timeout time.Duration
	// SweepWorkers is the worker-pool size for sweep requests (default
	// 0 = one per CPU).
	SweepWorkers int
	// MaxMatrixCells caps a matrix request's (topology, scenario) cell
	// count (default 16).
	MaxMatrixCells int
	// MaxInFlight caps concurrently executing simulation requests
	// (default 2 × GOMAXPROCS).  /healthz is never gated.
	MaxInFlight int
	// MaxQueue caps requests waiting for an in-flight slot (default
	// 4 × MaxInFlight).  Negative disables queueing: every request
	// beyond MaxInFlight is shed immediately.
	MaxQueue int
	// RetryAfter is the Retry-After hint on 429 replies (default 1s).
	RetryAfter time.Duration
	// WriteTimeout bounds each response write (default 30s).  Streams
	// extend it per chunk, so a slow reader of a long stream is fine —
	// a stalled one is cut.
	WriteTimeout time.Duration
}

// withDefaults substitutes the default for any unset limit.  Zero and
// negative values both select the default: a negative limit (an
// operator typo like `-timeout -1s`) would otherwise silently reject or
// time out every request.
func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxRanks <= 0 {
		c.MaxRanks = 64
	}
	if c.MaxPhases <= 0 {
		c.MaxPhases = 256
	}
	if c.MaxComputeN <= 0 {
		c.MaxComputeN = 10_000_000
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	if c.MaxMatrixCells <= 0 {
		c.MaxMatrixCells = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0 // negative: shed instead of queueing
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

// Compute is a compute phase on the wire.
type Compute struct {
	// Kind names the kernel (fpu, fxu, l1, l2, mem, branchy, mixed).
	Kind string `json:"kind"`
	// N is the instruction count.
	N int64 `json:"n"`
	// Footprint optionally overrides the kind's data footprint in bytes.
	Footprint int64 `json:"footprint,omitempty"`
}

// Exchange is a neighbour-exchange phase on the wire.
type Exchange struct {
	// Bytes is the per-peer message size.
	Bytes int64 `json:"bytes"`
	// Peers lists the ranks exchanged with.
	Peers []int `json:"peers"`
}

// Phase is one program step; exactly one of the three fields is set.
type Phase struct {
	// Compute runs a synthetic kernel.
	Compute *Compute `json:"compute,omitempty"`
	// Barrier synchronizes all ranks.
	Barrier bool `json:"barrier,omitempty"`
	// Exchange passes messages between neighbour ranks.
	Exchange *Exchange `json:"exchange,omitempty"`
}

// Job is an MPI-style job on the wire.
type Job struct {
	// Name labels the job in diagnostics; it never affects results.
	Name string `json:"name,omitempty"`
	// Ranks holds each rank's phase program.
	Ranks [][]Phase `json:"ranks"`
}

// Placement pins ranks explicitly; omitted in RunRequest it defaults to
// pin-in-order at medium priority (the paper's Case A).
type Placement struct {
	// CPUs pins rank i to logical CPU CPUs[i].
	CPUs []int `json:"cpus"`
	// Priorities is each rank's hardware thread priority.
	Priorities []int `json:"priorities"`
}

// RunRequest is the POST /v1/run body.
type RunRequest struct {
	// Job is the program to simulate.
	Job Job `json:"job"`
	// Placement pins ranks by logical CPU; Pin pins them by
	// "chip.core.context[@prio]" triples.  At most one may be set.
	Placement *Placement `json:"placement,omitempty"`
	// Pin is the triple-syntax alternative to Placement.
	Pin string `json:"pin,omitempty"`
	// Policy attaches an online balancing policy to the run, in
	// ParsePolicy syntax — e.g. "dyn,maxdiff=2", "hier", "feedback".
	// Empty means no policy (the static launch priorities are final).
	Policy string `json:"policy,omitempty"`
}

// RankResult is one rank's outcome on the wire.
type RankResult struct {
	// CPU is the logical CPU the rank ran on.
	CPU int `json:"cpu"`
	// Core is the global chip-major core index.
	Core int `json:"core"`
	// Chip locates the core's chip.
	Chip int `json:"chip"`
	// Priority is the rank's launch hardware thread priority; a
	// balancing policy's later rewrites are not reflected here.
	Priority int `json:"priority"`
	// ComputePct is the share of time spent computing.
	ComputePct float64 `json:"compute_pct"`
	// SyncPct is the share of time spent waiting at barriers.
	SyncPct float64 `json:"sync_pct"`
	// CommPct is the share of time spent in exchanges.
	CommPct float64 `json:"comm_pct"`
	// Instructions is the rank's retired instruction count.
	Instructions int64 `json:"instructions"`
}

// RunResponse is the POST /v1/run reply.
type RunResponse struct {
	// Seconds is the simulated wall time.
	Seconds float64 `json:"seconds"`
	// Cycles is the simulated cycle count.
	Cycles int64 `json:"cycles"`
	// ImbalancePct measures load imbalance across ranks.
	ImbalancePct float64 `json:"imbalance_pct"`
	// Iterations is the number of barrier releases observed.
	Iterations int `json:"iterations"`
	// Policy is the resolved canonical identity of the balancing policy
	// the run executed under ("static" when none was attached).
	Policy string `json:"policy"`
	// BalancerMoves counts the priority rewrites the policy applied.
	BalancerMoves int `json:"balancer_moves"`
	// Ranks holds each rank's outcome.
	Ranks []RankResult `json:"ranks"`
}

// SweepSpace selects the search space on the wire.
type SweepSpace struct {
	// Alphabet is "user" (priorities 2-4, the default) or "os" (2-6).
	// Priorities, if set, overrides it with an explicit list.
	Alphabet string `json:"alphabet,omitempty"`
	// Priorities is the explicit priority alphabet overriding Alphabet.
	Priorities []int `json:"priorities,omitempty"`
	// FixPairing keeps the default rank-to-CPU pairing and sweeps only
	// priorities.
	FixPairing bool `json:"fix_pairing,omitempty"`
	// Policies adds a balancing-policy axis: each entry is a ParsePolicy
	// specification, and the ranking covers every policy × placement ×
	// priority configuration (the stream's entries carry a policy field).
	Policies []string `json:"policies,omitempty"`
}

// SweepObjective weights the ranking objective; the zero value minimizes
// execution time.
type SweepObjective struct {
	// CyclesWeight weights execution time in the score.
	CyclesWeight float64 `json:"cycles_weight,omitempty"`
	// ImbalanceWeight weights load imbalance in the score.
	ImbalanceWeight float64 `json:"imbalance_weight,omitempty"`
}

// SweepRequest is the POST /v1/sweep body.
type SweepRequest struct {
	// Job is the program to sweep placements for.
	Job Job `json:"job"`
	// Space selects the placement/priority search space.
	Space SweepSpace `json:"space"`
	// Top caps the number of ranked entries streamed back.
	Top int `json:"top,omitempty"`
	// Screen, when positive, enables two-level screening: the analytical
	// cost model ranks the whole space and only the Screen best-predicted
	// configurations plus a guard band are simulated (see
	// smtbalance.SweepOptions.Screen).  0 sweeps exhaustively.
	Screen int `json:"screen,omitempty"`
	// Objective weights the ranking score.
	Objective SweepObjective `json:"objective"`
}

// SweepEntryJSON is one ranked configuration, one NDJSON chunk of the
// sweep stream.
type SweepEntryJSON struct {
	// Rank is the entry's 1-based position in the ranking.
	Rank int `json:"rank"`
	// Policy identifies the entry's balancing policy on policy-axis
	// sweeps; omitted otherwise.
	Policy string `json:"policy,omitempty"`
	// CPUs is the evaluated placement.
	CPUs []int `json:"cpus"`
	// Priorities is the evaluated priority assignment.
	Priorities []int `json:"priorities"`
	// Cycles is the configuration's simulated cycle count.
	Cycles int64 `json:"cycles"`
	// Seconds is the configuration's simulated wall time.
	Seconds float64 `json:"seconds"`
	// ImbalancePct measures the configuration's load imbalance.
	ImbalancePct float64 `json:"imbalance_pct"`
	// Score is the objective value the ranking sorts by.
	Score float64 `json:"score"`
}

// SweepDone is the terminal NDJSON chunk of a sweep stream.
type SweepDone struct {
	// Done is always true; it marks the terminal chunk.
	Done bool `json:"done"`
	// Evaluated counts the configurations simulated.
	Evaluated int `json:"evaluated"`
	// Returned counts the entries streamed before this chunk.
	Returned int `json:"returned"`
}

// MatrixRequest is the POST /v1/matrix body: every policy evaluated on
// every scenario on every topology, scored by speedup over the static
// control (see smtbalance.Matrix.Eval).
type MatrixRequest struct {
	// Scenarios are ParseScenario specifications, e.g. "uniform",
	// "ramp,skew=3".  Required.
	Scenarios []string `json:"scenarios"`
	// Policies are ParsePolicy specifications; the static control is
	// added automatically when absent.  Required.
	Policies []string `json:"policies"`
	// Topologies are "chips x cores x smt" strings; empty means the
	// server machine's topology.
	Topologies []string `json:"topologies,omitempty"`
}

// MatrixEntryJSON is one evaluation, one NDJSON chunk of the matrix
// stream.
type MatrixEntryJSON struct {
	// Topology renders the cell's machine as "chips x cores x smt".
	Topology string `json:"topology"`
	// Scenario is the cell's canonical scenario identity.
	Scenario string `json:"scenario"`
	// Policy is the evaluated policy's canonical identity.
	Policy string `json:"policy"`
	// Cycles is the evaluation's simulated cycle count.
	Cycles int64 `json:"cycles"`
	// Seconds is the evaluation's simulated wall time.
	Seconds float64 `json:"seconds"`
	// ImbalancePct measures the evaluation's load imbalance.
	ImbalancePct float64 `json:"imbalance_pct"`
	// Speedup is the policy's speedup over the static control.
	Speedup float64 `json:"speedup_vs_static"`
}

// MatrixDone is the terminal NDJSON chunk of a matrix stream.
type MatrixDone struct {
	// Done is always true; it marks the terminal chunk.
	Done bool `json:"done"`
	// Cells counts the topology × scenario cells evaluated.
	Cells int `json:"cells"`
	// Entries counts the per-policy entries streamed before this chunk.
	Entries int `json:"entries"`
}

// ServeStats reports the admission gate's state in /healthz.
type ServeStats struct {
	// InFlight is the number of simulation requests executing now.
	InFlight int64 `json:"in_flight"`
	// Queued is the number of requests waiting for a slot.
	Queued int64 `json:"queued"`
	// Rejected counts requests shed with 429 since the server started.
	Rejected int64 `json:"rejected"`
	// MaxInFlight and MaxQueue echo the effective limits.
	MaxInFlight int `json:"max_in_flight"`
	// MaxQueue is the admission queue's capacity.
	MaxQueue int `json:"max_queue"`
}

// Health is the GET /healthz reply.
type Health struct {
	// Status is "ok" whenever the server answers.
	Status string `json:"status"`
	// Topology renders the machine as "chips x cores x smt".
	Topology string `json:"topology"`
	// Contexts is the machine's hardware context count.
	Contexts int `json:"contexts"`
	// Cache reports the result cache's hit/miss counters.
	Cache smtbalance.CacheStats `json:"cache"`
	// Serve reports the admission gate's state.
	Serve ServeStats `json:"serve"`
}

// errorJSON is every error reply's shape.
type errorJSON struct {
	Error string `json:"error"`
}

// errOverloaded is gate.acquire's verdict when both the in-flight slots
// and the queue are full; handlers translate it to 429.
var errOverloaded = errors.New("serve: overloaded")

// gate is the admission controller: a fixed pool of in-flight slots
// plus a bounded count of waiters.  Anything beyond both bounds is shed
// immediately — the one response a saturated server can still afford.
type gate struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	inflight atomic.Int64
	rejected atomic.Int64
}

func newGate(maxInFlight, maxQueue int) *gate {
	return &gate{slots: make(chan struct{}, maxInFlight), maxQueue: int64(maxQueue)}
}

// acquire reserves an execution slot, waiting in the queue if one is
// not immediately free.  It returns errOverloaded when the queue is
// full, or ctx.Err() if the caller gives up while waiting.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.rejected.Add(1)
		return errOverloaded
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns an acquired slot.
func (g *gate) release() {
	g.inflight.Add(-1)
	<-g.slots
}

func (g *gate) stats() ServeStats {
	return ServeStats{
		InFlight:    g.inflight.Load(),
		Queued:      g.queued.Load(),
		Rejected:    g.rejected.Load(),
		MaxInFlight: cap(g.slots),
		MaxQueue:    int(g.maxQueue),
	}
}

type server struct {
	m   *smtbalance.Machine
	mx  *smtbalance.Matrix
	cfg Config
	g   *gate
}

// NewHandler serves the API on one shared Machine.  Matrix requests
// run on a shared Matrix engine of their own (scenario cells may name
// topologies other than the Machine's), whose cell cache likewise
// persists across requests.  Matrix cells run on that engine's own
// default-option machines, not on m: a disk cache attached to m
// (mtbalance serve -cache-dir) does not persist them, and the /healthz
// cache counters, which report m's cache, do not count them.
func NewHandler(m *smtbalance.Machine, cfg Config) http.Handler {
	cfg = cfg.withDefaults()
	s := &server{m: m, mx: smtbalance.NewMatrix(), cfg: cfg, g: newGate(cfg.MaxInFlight, cfg.MaxQueue)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("POST /v1/run", s.run)
	mux.HandleFunc("POST /v1/sweep", s.sweep)
	mux.HandleFunc("POST /v1/matrix", s.matrix)
	return mux
}

// admit passes the request through the admission gate, writing the 429
// (with a Retry-After hint) or client-gone verdict itself.  Handlers
// must defer s.g.release() on true.
func (s *server) admit(w http.ResponseWriter, r *http.Request) bool {
	switch err := s.g.acquire(r.Context()); {
	case err == nil:
		return true
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		writeError(w, http.StatusTooManyRequests,
			"server at capacity (%d in flight, %d queued); retry after %s",
			s.cfg.MaxInFlight, s.cfg.MaxQueue, s.cfg.RetryAfter)
	default:
		// Client gave up while queued; nothing useful to write.
	}
	return false
}

// extendWriteDeadline pushes the connection's write deadline
// cfg.WriteTimeout into the future; called before every response write
// so a stalled client is cut loose while a merely slow one, reading
// chunk by chunk, keeps its stream.  Best-effort: writers without
// deadline support (httptest recorders) are left alone.
func (s *server) extendWriteDeadline(rc *http.ResponseController) {
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// fail answers a request whose evaluation failed before any reply was
// written: 504 when the server's budget ran out, nothing when the
// client went away, and 400 otherwise.
func (s *server) fail(w http.ResponseWriter, r *http.Request, what string, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "%s exceeded the server's %s budget", what, s.cfg.Timeout)
	case r.Context().Err() != nil:
		// Client went away; nothing useful to write.
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// streamNDJSON streams seq as NDJSON: one record(i, v) line per
// element, flushed as soon as it is written, then the terminal done(n)
// record once all n elements are out, so the reply is never buffered
// whole.  Every write first extends the rolling write deadline.  An
// error before the first element is answered by s.fail; after it the
// status line is gone, so the error becomes the stream's terminal
// {"error": ...} record instead of a silent cut.  A failed write
// (client gone, or write deadline hit) ends the stream.
func streamNDJSON[T any](s *server, w http.ResponseWriter, r *http.Request, what string,
	seq iter.Seq2[T, error], record func(i int, v T) any, done func(n int) any) {
	rc := http.NewResponseController(w)
	var enc *json.Encoder
	start := func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
		enc.SetEscapeHTML(false)
	}
	n := 0
	for v, err := range seq {
		if err != nil {
			if enc == nil {
				s.fail(w, r, what, err)
			} else {
				_ = enc.Encode(errorJSON{Error: err.Error()})
			}
			return
		}
		if enc == nil {
			start()
		}
		s.extendWriteDeadline(rc)
		if err := enc.Encode(record(n, v)); err != nil {
			return
		}
		n++
		_ = rc.Flush()
	}
	if enc == nil {
		start() // an empty stream still ends with its done record
	}
	s.extendWriteDeadline(rc)
	_ = enc.Encode(done(n))
	_ = rc.Flush()
}

// decode reads and strictly parses a JSON body into v.
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		}
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// buildJob validates the wire job against the config limits and converts
// it.  All errors are client errors.
func (s *server) buildJob(j Job) (smtbalance.Job, error) {
	if len(j.Ranks) == 0 {
		return smtbalance.Job{}, fmt.Errorf("job has no ranks")
	}
	if len(j.Ranks) > s.cfg.MaxRanks {
		return smtbalance.Job{}, fmt.Errorf("job has %d ranks; this server accepts at most %d", len(j.Ranks), s.cfg.MaxRanks)
	}
	name := j.Name
	if name == "" {
		name = "serve"
	}
	out := smtbalance.Job{Name: name}
	for r, prog := range j.Ranks {
		if len(prog) == 0 {
			return smtbalance.Job{}, fmt.Errorf("rank %d has no phases", r)
		}
		if len(prog) > s.cfg.MaxPhases {
			return smtbalance.Job{}, fmt.Errorf("rank %d has %d phases; this server accepts at most %d", r, len(prog), s.cfg.MaxPhases)
		}
		var phases []smtbalance.Phase
		for i, ph := range prog {
			set := 0
			if ph.Compute != nil {
				set++
			}
			if ph.Barrier {
				set++
			}
			if ph.Exchange != nil {
				set++
			}
			if set != 1 {
				return smtbalance.Job{}, fmt.Errorf("rank %d phase %d: exactly one of compute, barrier, exchange must be set", r, i)
			}
			switch {
			case ph.Compute != nil:
				c := ph.Compute
				if err := smtbalance.ParseKind(c.Kind); err != nil {
					return smtbalance.Job{}, fmt.Errorf("rank %d phase %d: %v", r, i, err)
				}
				if c.N <= 0 || c.N > s.cfg.MaxComputeN {
					return smtbalance.Job{}, fmt.Errorf("rank %d phase %d: compute n must be in 1..%d, got %d", r, i, s.cfg.MaxComputeN, c.N)
				}
				if c.Footprint < 0 {
					return smtbalance.Job{}, fmt.Errorf("rank %d phase %d: negative footprint", r, i)
				}
				phases = append(phases, smtbalance.ComputeSized(c.Kind, c.N, c.Footprint))
			case ph.Barrier:
				phases = append(phases, smtbalance.Barrier())
			default:
				e := ph.Exchange
				if e.Bytes < 0 {
					return smtbalance.Job{}, fmt.Errorf("rank %d phase %d: negative exchange bytes", r, i)
				}
				for _, p := range e.Peers {
					if p < 0 || p >= len(j.Ranks) {
						return smtbalance.Job{}, fmt.Errorf("rank %d phase %d: exchange peer %d outside 0..%d", r, i, p, len(j.Ranks)-1)
					}
				}
				phases = append(phases, smtbalance.Exchange(e.Bytes, e.Peers...))
			}
		}
		out.Ranks = append(out.Ranks, phases)
	}
	return out, nil
}

// buildPlacement resolves a request's placement choice.
func (s *server) buildPlacement(req RunRequest, ranks int) (smtbalance.Placement, error) {
	topo := s.m.Topology()
	switch {
	case req.Placement != nil && req.Pin != "":
		return smtbalance.Placement{}, fmt.Errorf("placement and pin are mutually exclusive")
	case req.Pin != "":
		pl, err := smtbalance.ParsePlacement(topo, req.Pin)
		if err != nil {
			return smtbalance.Placement{}, err
		}
		if len(pl.CPU) != ranks {
			return smtbalance.Placement{}, fmt.Errorf("pin places %d ranks but the job has %d", len(pl.CPU), ranks)
		}
		return pl, nil
	case req.Placement != nil:
		p := req.Placement
		if len(p.CPUs) != ranks || len(p.Priorities) != ranks {
			return smtbalance.Placement{}, fmt.Errorf("placement maps %d CPUs and %d priorities for a %d-rank job",
				len(p.CPUs), len(p.Priorities), ranks)
		}
		pl := smtbalance.Placement{CPU: p.CPUs}
		for _, pr := range p.Priorities {
			prio := smtbalance.Priority(pr)
			if !prio.Valid() {
				return smtbalance.Placement{}, fmt.Errorf("priority %d outside 0..7", pr)
			}
			pl.Priority = append(pl.Priority, prio)
		}
		return pl, nil
	default:
		return topo.PinInOrder(ranks)
	}
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	topo := s.m.Topology()
	writeJSON(w, http.StatusOK, Health{
		Status:   "ok",
		Topology: topo.String(),
		Contexts: topo.Contexts(),
		Cache:    s.m.CacheStats(),
		Serve:    s.g.stats(),
	})
}

func (s *server) run(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	job, err := s.buildJob(req.Job)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pl, err := s.buildPlacement(req, len(job.Ranks))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var pol smtbalance.Policy
	if req.Policy != "" {
		if pol, err = smtbalance.ParsePolicy(req.Policy); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if !s.admit(w, r) {
		return
	}
	defer s.g.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	res, err := s.m.RunPolicy(ctx, job, pl, pol)
	if err != nil {
		s.fail(w, r, "run", err)
		return
	}
	resolved := res.Policy
	if resolved == "" {
		resolved = "static" // no policy attached: the launch plan ran as-is
	}
	out := RunResponse{
		Seconds:       res.Seconds,
		Cycles:        res.Cycles,
		ImbalancePct:  res.ImbalancePct,
		Iterations:    res.Iterations,
		Policy:        resolved,
		BalancerMoves: res.BalancerMoves,
	}
	for _, rr := range res.Ranks {
		out.Ranks = append(out.Ranks, RankResult{
			CPU: rr.CPU, Core: rr.Core, Chip: rr.Chip, Priority: int(rr.Priority),
			ComputePct: rr.ComputePct, SyncPct: rr.SyncPct, CommPct: rr.CommPct,
			Instructions: rr.Instructions,
		})
	}
	s.extendWriteDeadline(http.NewResponseController(w))
	writeJSON(w, http.StatusOK, out)
}

func (s *server) sweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	job, err := s.buildJob(req.Job)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var space smtbalance.Space
	switch req.Space.Alphabet {
	case "", "user":
		space = smtbalance.UserSettableSpace()
	case "os":
		space = smtbalance.OSSettableSpace()
	default:
		writeError(w, http.StatusBadRequest, "unknown space alphabet %q (want user or os)", req.Space.Alphabet)
		return
	}
	if len(req.Space.Priorities) > 0 {
		space.Priorities = nil
		for _, p := range req.Space.Priorities {
			space.Priorities = append(space.Priorities, smtbalance.Priority(p))
		}
	}
	space.FixPairing = req.Space.FixPairing
	for _, spec := range req.Space.Policies {
		pol, err := smtbalance.ParsePolicy(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		space.Policies = append(space.Policies, pol)
	}
	if req.Top < 0 {
		writeError(w, http.StatusBadRequest, "top must be >= 0, got %d", req.Top)
		return
	}
	if req.Screen < 0 {
		writeError(w, http.StatusBadRequest, "screen must be >= 0, got %d", req.Screen)
		return
	}
	// The zero-valued objective already means "minimize cycles".
	obj := smtbalance.WeightedObjective(req.Objective.CyclesWeight, req.Objective.ImbalanceWeight)

	if !s.admit(w, r) {
		return
	}
	defer s.g.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	// The ranking streams best first, one entry per chunk (score
	// normalization means the first entry still waits for evaluation to
	// finish; see Machine.Sweep).  Evaluated for the terminal record is
	// recovered through Progress: the ranking may be Top-truncated, so
	// the entry count undercounts.
	var evaluated atomic.Int64
	entries := s.m.Sweep(ctx, job, space, &smtbalance.SweepOptions{
		Workers:   s.cfg.SweepWorkers,
		Top:       req.Top,
		Screen:    req.Screen,
		Objective: obj,
		Progress:  func(done, total int) { evaluated.Store(int64(done)) },
	})
	streamNDJSON(s, w, r, "sweep", entries, func(i int, e smtbalance.SweepEntry) any {
		entry := SweepEntryJSON{
			Rank:         i + 1,
			Policy:       e.Policy,
			CPUs:         e.Placement.CPU,
			Cycles:       e.Cycles,
			Seconds:      e.Seconds,
			ImbalancePct: e.ImbalancePct,
			Score:        e.Score,
		}
		for _, p := range e.Placement.Priority {
			entry.Priorities = append(entry.Priorities, int(p))
		}
		return entry
	}, func(n int) any {
		return SweepDone{Done: true, Evaluated: int(evaluated.Load()), Returned: n}
	})
}

// checkScenarioLimits bounds what one matrix scenario may ask of the
// server, reading the scenario's effective parameters (the built-in
// shapes expose ranks/iters/base; a custom shape without them is
// bounded by its topology's context count and the request timeout).
func (s *server) checkScenarioLimits(sc smtbalance.Scenario) error {
	params := sc.Params()
	if v, err := strconv.Atoi(params["ranks"]); err == nil && v > s.cfg.MaxRanks {
		return fmt.Errorf("scenario %q asks for %d ranks; this server accepts at most %d", smtbalance.ScenarioID(sc), v, s.cfg.MaxRanks)
	}
	if v, err := strconv.Atoi(params["iters"]); err == nil && v > s.cfg.MaxPhases/2 {
		return fmt.Errorf("scenario %q asks for %d iterations; this server accepts at most %d", smtbalance.ScenarioID(sc), v, s.cfg.MaxPhases/2)
	}
	if v, err := strconv.ParseInt(params["base"], 10, 64); err == nil && v > s.cfg.MaxComputeN {
		return fmt.Errorf("scenario %q asks for %d-instruction phases; this server accepts at most %d", smtbalance.ScenarioID(sc), v, s.cfg.MaxComputeN)
	}
	return nil
}

// matrix streams a policy × scenario × topology evaluation matrix as
// NDJSON, cell by cell as each finishes (cached cells stream
// immediately), then a terminal MatrixDone record.  Errors before the
// first entry are JSON error replies; an error after streaming began is
// appended as a final {"error": ...} record.
func (s *server) matrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if !s.decode(w, r, &req) {
		return
	}
	var spec smtbalance.MatrixSpec
	for _, raw := range req.Scenarios {
		sc, err := smtbalance.ParseScenario(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.checkScenarioLimits(sc); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		spec.Scenarios = append(spec.Scenarios, sc)
	}
	for _, raw := range req.Policies {
		pol, err := smtbalance.ParsePolicy(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		spec.Policies = append(spec.Policies, pol)
	}
	for _, raw := range req.Topologies {
		topo, err := smtbalance.ParseTopology(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		spec.Topologies = append(spec.Topologies, topo)
	}
	if len(spec.Topologies) == 0 {
		spec.Topologies = []smtbalance.Topology{s.m.Topology()}
	}
	// A scenario with ranks=0 sizes its job to the topology, so the
	// rank cap must bound the requested machines too — otherwise a
	// "64x64x2" topology smuggles an 8192-rank job past MaxRanks.
	for _, topo := range spec.Topologies {
		if topo.Contexts() > s.cfg.MaxRanks {
			writeError(w, http.StatusBadRequest, "topology %s has %d hardware contexts; this server simulates at most %d ranks", topo, topo.Contexts(), s.cfg.MaxRanks)
			return
		}
	}
	if len(spec.Scenarios) == 0 || len(spec.Policies) == 0 {
		writeError(w, http.StatusBadRequest, "scenarios and policies must both be non-empty")
		return
	}
	if cells := len(spec.Topologies) * len(spec.Scenarios); cells > s.cfg.MaxMatrixCells {
		writeError(w, http.StatusBadRequest, "%d topology × scenario cells; this server accepts at most %d", cells, s.cfg.MaxMatrixCells)
		return
	}

	if !s.admit(w, r) {
		return
	}
	defer s.g.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	entries := s.mx.Eval(ctx, spec, &smtbalance.MatrixOptions{Workers: s.cfg.SweepWorkers})
	streamNDJSON(s, w, r, "matrix", entries, func(_ int, e smtbalance.MatrixEntry) any {
		return MatrixEntryJSON{
			Topology:     e.Topology,
			Scenario:     e.Scenario,
			Policy:       e.Policy,
			Cycles:       e.Cycles,
			Seconds:      e.Seconds,
			ImbalancePct: e.ImbalancePct,
			Speedup:      e.Speedup,
		}
	}, func(n int) any {
		return MatrixDone{Done: true, Cells: len(spec.Topologies) * len(spec.Scenarios), Entries: n}
	})
}
