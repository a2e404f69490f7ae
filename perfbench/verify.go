package main

import (
	"fmt"
	"os"
	"reflect"
	"sync/atomic"

	smtbalance "repro"
	"repro/internal/serve"
)

// Answers are verified after the timed window, untimed: a sample of each
// workload's answers is recomputed independently and compared field for
// field.  A mismatch counts as a failed request, so it shows in the
// result line's failed count and makes the run exit non-zero.

// diffResults lists the fields in which got differs from want.
// SkippedCycles is not compared: it records how the simulator reached
// the answer (phase-skip or exact stepping), not the answer.
func diffResults(got, want *smtbalance.Result) []string {
	var d []string
	if got.Cycles != want.Cycles {
		d = append(d, fmt.Sprintf("cycles %d != %d", got.Cycles, want.Cycles))
	}
	if got.Seconds != want.Seconds {
		d = append(d, fmt.Sprintf("seconds %v != %v", got.Seconds, want.Seconds))
	}
	if got.ImbalancePct != want.ImbalancePct {
		d = append(d, fmt.Sprintf("imbalance %v != %v", got.ImbalancePct, want.ImbalancePct))
	}
	if got.Iterations != want.Iterations {
		d = append(d, fmt.Sprintf("iterations %d != %d", got.Iterations, want.Iterations))
	}
	if got.BalancerMoves != want.BalancerMoves || got.Policy != want.Policy {
		d = append(d, "policy or balancer moves differ")
	}
	if !reflect.DeepEqual(got.Ranks, want.Ranks) {
		d = append(d, "per-rank summaries differ")
	}
	if got.Timeline(120) != want.Timeline(120) {
		d = append(d, "timelines differ")
	}
	return d
}

// diffEntry compares a ranked sweep entry with an exact re-run of its
// configuration.
func diffEntry(e smtbalance.SweepEntry, r *smtbalance.Result) []string {
	var d []string
	if e.Cycles != r.Cycles {
		d = append(d, fmt.Sprintf("cycles %d != %d", e.Cycles, r.Cycles))
	}
	if e.ImbalancePct != r.ImbalancePct {
		d = append(d, fmt.Sprintf("imbalance %v != %v", e.ImbalancePct, r.ImbalancePct))
	}
	return d
}

// expectedResponse is the /v1/run reply the server owes for res.
func expectedResponse(res *smtbalance.Result) serve.RunResponse {
	pol := res.Policy
	if pol == "" {
		pol = "static"
	}
	out := serve.RunResponse{
		Seconds:       res.Seconds,
		Cycles:        res.Cycles,
		ImbalancePct:  res.ImbalancePct,
		Iterations:    res.Iterations,
		Policy:        pol,
		BalancerMoves: res.BalancerMoves,
	}
	for _, r := range res.Ranks {
		out.Ranks = append(out.Ranks, serve.RankResult{
			CPU: r.CPU, Core: r.Core, Chip: r.Chip, Priority: int(r.Priority),
			ComputePct: r.ComputePct, SyncPct: r.SyncPct, CommPct: r.CommPct,
			Instructions: r.Instructions,
		})
	}
	return out
}

// diffResponses lists how a served reply differs from the expected one.
func diffResponses(got, want serve.RunResponse) []string {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	return []string{fmt.Sprintf("served %+v, want %+v", got, want)}
}

// check is one deferred verification: it recomputes an answer and
// returns the differences it found.
type check struct {
	what string
	run  func() ([]string, error)
}

// runChecks executes the checks on up to workers goroutines and returns
// how many ran and how many failed (an error counts as a failure).
func runChecks(checks []check, workers int) (checked, failed int) {
	var bad atomic.Int64
	_ = parallel(len(checks), workers, func(i int) error {
		diffs, err := checks[i].run()
		if err != nil || len(diffs) > 0 {
			bad.Add(1)
			fmt.Fprintf(os.Stderr, "perfbench: %s failed verification: %v %v\n", checks[i].what, diffs, err)
		}
		return nil
	})
	return len(checks), int(bad.Load())
}
