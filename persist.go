package smtbalance

import (
	"encoding/json"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// This file defines the on-disk record forms of the result cache's two
// layers.  Records are JSON for debuggability (an operator can cat a
// cache entry), and every numeric field round-trips exactly —
// encoding/json emits the shortest float64 representation that decodes
// to the same bits — so a result revived from disk is indistinguishable
// from the run that produced it, trace included.
//
// diskVersion names the store's directory: "v2" tracks the cache-key
// format (the envJobKey version tag), "r1" the record schema below.
// Bump the matching half on any change — old trees then become
// invisible instead of corrupt.
const diskVersion = "v2r1"

// diskInterval is one trace interval on disk (state, from, to).
type diskInterval struct {
	S uint8 `json:"s"`
	F int64 `json:"f"`
	T int64 `json:"t"`
}

// diskRank mirrors RankSummary on disk.
type diskRank struct {
	CPU          int     `json:"cpu"`
	Core         int     `json:"core"`
	Chip         int     `json:"chip"`
	Priority     int     `json:"priority"`
	ComputePct   float64 `json:"compute_pct"`
	SyncPct      float64 `json:"sync_pct"`
	CommPct      float64 `json:"comm_pct"`
	Instructions int64   `json:"instructions"`
}

// diskResult is a full Result on disk, trace included.
type diskResult struct {
	Seconds       float64          `json:"seconds"`
	Cycles        int64            `json:"cycles"`
	ImbalancePct  float64          `json:"imbalance_pct"`
	Iterations    int              `json:"iterations"`
	BalancerMoves int              `json:"balancer_moves,omitempty"`
	Policy        string           `json:"policy,omitempty"`
	SkippedCycles int64            `json:"skipped_cycles,omitempty"`
	Ranks         []diskRank       `json:"ranks"`
	TraceEnd      int64            `json:"trace_end"`
	Trace         [][]diskInterval `json:"trace"`
}

// diskMetrics is a sweep-point metrics record on disk.
type diskMetrics struct {
	Cycles       int64   `json:"cycles"`
	Seconds      float64 `json:"seconds"`
	ImbalancePct float64 `json:"imbalance_pct"`
}

// recordError reports a disk record that failed to decode.
type recordError struct {
	kind string // "result" or "metrics"
	err  error
}

func (e *recordError) Error() string {
	return "smtbalance: corrupt " + e.kind + " record: " + e.err.Error()
}

func (e *recordError) Unwrap() error { return e.err }

// encodeResult renders a Result as its disk record.  Results without a
// trace are not persistable (the record would revive incompletely) and
// report ok=false.
func encodeResult(r *Result) (data []byte, ok bool) {
	if r.tr == nil {
		return nil, false
	}
	rec := diskResult{
		Seconds:       r.Seconds,
		Cycles:        r.Cycles,
		ImbalancePct:  r.ImbalancePct,
		Iterations:    r.Iterations,
		BalancerMoves: r.BalancerMoves,
		Policy:        r.Policy,
		SkippedCycles: r.SkippedCycles,
		TraceEnd:      r.tr.End(),
	}
	for _, rs := range r.Ranks {
		rec.Ranks = append(rec.Ranks, diskRank{
			CPU: rs.CPU, Core: rs.Core, Chip: rs.Chip, Priority: int(rs.Priority),
			ComputePct: rs.ComputePct, SyncPct: rs.SyncPct, CommPct: rs.CommPct,
			Instructions: rs.Instructions,
		})
	}
	rec.Trace = make([][]diskInterval, r.tr.NumRanks())
	for i := 0; i < r.tr.NumRanks(); i++ {
		for _, iv := range r.tr.Intervals(i) {
			rec.Trace[i] = append(rec.Trace[i], diskInterval{S: uint8(iv.State), F: iv.From, T: iv.To})
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, false // unreachable: the record is plain data
	}
	return data, true
}

// decodeResult revives a Result from its disk record.  Any
// inconsistency — bad JSON, an invalid trace — is an error; callers
// treat it as a cache miss and re-simulate.
func decodeResult(data []byte) (*Result, error) {
	var rec diskResult
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, &recordError{"result", err}
	}
	ranks := make([][]trace.Interval, len(rec.Trace))
	for i, ivs := range rec.Trace {
		for _, iv := range ivs {
			ranks[i] = append(ranks[i], trace.Interval{State: trace.State(iv.S), From: iv.F, To: iv.T})
		}
	}
	tr, err := trace.FromIntervals(ranks, rec.TraceEnd)
	if err != nil {
		return nil, &recordError{"result", err}
	}
	out := &Result{
		Seconds:       rec.Seconds,
		Cycles:        rec.Cycles,
		ImbalancePct:  rec.ImbalancePct,
		Iterations:    rec.Iterations,
		BalancerMoves: rec.BalancerMoves,
		Policy:        rec.Policy,
		SkippedCycles: rec.SkippedCycles,
		tr:            tr,
	}
	for _, dr := range rec.Ranks {
		out.Ranks = append(out.Ranks, RankSummary{
			CPU: dr.CPU, Core: dr.Core, Chip: dr.Chip, Priority: Priority(dr.Priority),
			ComputePct: dr.ComputePct, SyncPct: dr.SyncPct, CommPct: dr.CommPct,
			Instructions: dr.Instructions,
		})
	}
	return out, nil
}

// encodeMetrics renders a sweep-point metrics record.
func encodeMetrics(m sweep.Metrics) []byte {
	data, err := json.Marshal(diskMetrics{Cycles: m.Cycles, Seconds: m.Seconds, ImbalancePct: m.ImbalancePct})
	if err != nil {
		panic(err) // unreachable: three scalars
	}
	return data
}

// decodeMetrics revives a sweep-point metrics record.
func decodeMetrics(data []byte) (sweep.Metrics, error) {
	var rec diskMetrics
	if err := json.Unmarshal(data, &rec); err != nil {
		return sweep.Metrics{}, &recordError{"metrics", err}
	}
	return sweep.Metrics{Cycles: rec.Cycles, Seconds: rec.Seconds, ImbalancePct: rec.ImbalancePct}, nil
}
