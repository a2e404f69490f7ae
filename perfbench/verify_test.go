package main

import (
	"context"
	"testing"

	smtbalance "repro"
)

// tinyResult simulates a small job so the verifiers have a real answer
// to compare against.
func tinyResult(t *testing.T) (smtbalance.Job, *smtbalance.Result) {
	t.Helper()
	job := metbenchJob(newRNG(1, 1), 0.05).public()
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), job, smtbalance.PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	return job, res
}

func TestDiffResultsCatchesCorruption(t *testing.T) {
	job, res := tinyResult(t)
	m, err := smtbalance.NewMachine(&smtbalance.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.Run(context.Background(), job, smtbalance.PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(res, exact); len(d) > 0 {
		t.Fatalf("an honest answer failed verification: %v", d)
	}
	bad := *res
	bad.Ranks = append([]smtbalance.RankSummary(nil), res.Ranks...)
	bad.Ranks[2].Instructions++
	if d := diffResults(&bad, exact); len(d) == 0 {
		t.Error("a corrupted per-rank count passed verification")
	}
	bad = *res
	bad.Cycles++
	if d := diffResults(&bad, exact); len(d) == 0 {
		t.Error("a corrupted cycle count passed verification")
	}
	entry := smtbalance.SweepEntry{Cycles: exact.Cycles, ImbalancePct: exact.ImbalancePct + 0.5}
	if d := diffEntry(entry, exact); len(d) == 0 {
		t.Error("a corrupted sweep entry passed verification")
	}
}

func TestDiffResponsesCatchesCorruption(t *testing.T) {
	_, res := tinyResult(t)
	want := expectedResponse(res)
	got := expectedResponse(res)
	if d := diffResponses(got, want); len(d) > 0 {
		t.Fatalf("identical replies differ: %v", d)
	}
	got.Ranks[1].ComputePct += 1e-9
	if d := diffResponses(got, want); len(d) == 0 {
		t.Error("a corrupted reply passed verification")
	}
}

// TestCorruptedAnswerFailsTheRun is the end-to-end guarantee: one wrong
// answer among the checks makes failed non-zero, the run incorrect and
// its fail share positive.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	_, res := tinyResult(t)
	corrupted := expectedResponse(res)
	corrupted.Cycles--
	honest := func() ([]string, error) { return diffResponses(expectedResponse(res), expectedResponse(res)), nil }
	checks := []check{
		{"honest", honest},
		{"corrupted", func() ([]string, error) { return diffResponses(corrupted, expectedResponse(res)), nil }},
		{"honest again", honest},
	}
	checked, failed := runChecks(checks, 2)
	if checked != 3 || failed != 1 {
		t.Fatalf("runChecks = %d checked, %d failed; want 3, 1", checked, failed)
	}
	out := &outcome{setups: []float64{1}, lat: []float64{1, 2, 3}, window: 1, attempted: 3, failed: failed}
	r := summarize(config{}, out)
	if r.Correct || r.Failed != 1 || float64(r.Failed)/float64(r.Attempted) <= 0 {
		t.Errorf("summarize = %+v; want an incorrect run with a positive fail share", r)
	}
	out.failed = 0
	if r := summarize(config{}, out); !r.Correct {
		t.Errorf("a clean run was reported incorrect: %+v", r)
	}
}
