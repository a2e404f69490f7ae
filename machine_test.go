package smtbalance

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMachineRunMatchesWrapper: Machine.Run, which wraps the simulator in
// the result cache's tiers, returns exactly what a direct uncached
// simulation of the same configuration does.
func TestMachineRunMatchesWrapper(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	got, err := testMachine(t, &Options{}).Run(t.Context(), job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := runSim(t.Context(), job, PinInOrder(4), &Options{Topology: DefaultTopology()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.ImbalancePct != want.ImbalancePct {
		t.Errorf("Machine.Run (%d cycles, %.2f%%) differs from the direct run (%d cycles, %.2f%%)",
			got.Cycles, got.ImbalancePct, want.Cycles, want.ImbalancePct)
	}
	if !reflect.DeepEqual(got.Ranks, want.Ranks) {
		t.Error("Machine.Run and the direct run disagree on per-rank summaries")
	}
}

func TestMachineRunCache(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := m.Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := m.CacheStats(); st.Hits != 0 || st.Misses != 1 || st.Results != 1 {
		t.Errorf("after first run: stats %+v, want 0 hits / 1 miss / 1 result", st)
	}
	second, err := m.Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := m.CacheStats(); st.Hits != 1 {
		t.Errorf("identical re-run missed the cache: stats %+v", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached result differs from the original run")
	}
	// The cache must hand out independent copies: mutating one caller's
	// result must not corrupt later hits.
	second.Ranks[0].CPU = 99
	third, err := m.Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if third.Ranks[0].CPU == 99 {
		t.Error("mutating a cached result leaked into the cache")
	}
	// A different placement is a different configuration.
	pl := PinInOrder(4)
	pl.Priority[1] = PriorityHigh
	other, err := m.Run(ctx, job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cycles == first.Cycles {
		t.Log("note: different priorities happened to produce equal cycles")
	}
	if st := m.CacheStats(); st.Results != 2 {
		t.Errorf("distinct configurations share a cache entry: stats %+v", st)
	}
	// ClearCache releases the entries but keeps the counters; the next
	// identical run is a miss again with identical output.
	m.ClearCache()
	if st := m.CacheStats(); st.Results != 0 || st.Metrics != 0 || st.Hits == 0 {
		t.Errorf("ClearCache left %+v", st)
	}
	missesBefore := m.CacheStats().Misses
	again, err := m.Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheStats().Misses != missesBefore+1 {
		t.Error("run after ClearCache was not a miss")
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("post-clear re-run differs from the original result")
	}
}

func TestMachineRunOnIterationSkipsCache(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	calls := 0
	m, err := NewMachine(&Options{OnIteration: func(IterationStats) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Run(ctx, job, PinInOrder(4)); err != nil {
		t.Fatal(err)
	}
	after := calls
	if after == 0 {
		t.Fatal("OnIteration never fired")
	}
	if _, err := m.Run(ctx, job, PinInOrder(4)); err != nil {
		t.Fatal(err)
	}
	if calls != 2*after {
		t.Errorf("second run fired OnIteration %d times, want %d (cache must be bypassed)", calls-after, after)
	}
	if st := m.CacheStats(); st.Results != 0 {
		t.Errorf("results were cached despite OnIteration: stats %+v", st)
	}
}

func TestMachineRunCancelled(t *testing.T) {
	job := sweepTestJob(5_000_000, 20_000_000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = m.Run(ctx, job, PinInOrder(4))
	if err != context.Canceled {
		t.Fatalf("cancelled Machine.Run returned %v, want ctx.Err() (context.Canceled)", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled run took %v to return", d)
	}
}

func TestMachineSweepStreamsRanking(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	space := Space{Priorities: []Priority{PriorityMedium, PriorityHigh}}

	var progressLast, progressTotal int
	opts := &SweepOptions{Progress: func(evaluated, total int) {
		progressLast, progressTotal = evaluated, total
	}}
	var streamed []SweepEntry
	for e, err := range m.Sweep(ctx, job, space, opts) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, e)
	}
	if progressTotal != 48 || progressLast != 48 { // 3 pairings x 2^4
		t.Errorf("Progress saw %d/%d, want 48/48", progressLast, progressTotal)
	}
	all, err := m.SweepAll(ctx, job, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, all.Entries) {
		t.Error("streamed entries differ from SweepAll ranking")
	}
	// Scores ascend: the stream is the ranking, best first.
	for i := 1; i < len(streamed); i++ {
		if streamed[i].Score < streamed[i-1].Score {
			t.Fatalf("stream not sorted at %d: %f after %f", i, streamed[i].Score, streamed[i-1].Score)
		}
	}
	// Early break must be safe.
	n := 0
	for _, err := range m.Sweep(ctx, job, space, nil) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early break consumed %d entries", n)
	}
}

func TestMachineSweepCancelledYieldsCtxErr(t *testing.T) {
	job := sweepTestJob(5_000_000, 20_000_000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	var got []error
	for _, err := range m.Sweep(ctx, job, UserSettableSpace(), nil) {
		got = append(got, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled sweep took %v to return", d)
	}
	if len(got) != 1 || got[0] != context.Canceled {
		t.Fatalf("cancelled sweep yielded %v, want exactly one ctx.Err() (context.Canceled)", got)
	}

	// Mid-flight cancellation: cancel from the progress callback and
	// check the sweep aborts instead of evaluating all 48 points.
	job = sweepTestJob(20_000, 80_000)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	evaluated := 0
	var sweepErr error
	for _, err := range m.Sweep(ctx2, job, Space{Priorities: []Priority{PriorityMedium, PriorityHigh}},
		&SweepOptions{Workers: 1, Progress: func(done, total int) {
			evaluated = done
			if done == 2 {
				cancel2()
			}
		}}) {
		sweepErr = err
	}
	if !errors.Is(sweepErr, context.Canceled) {
		t.Fatalf("mid-flight cancel yielded %v, want context.Canceled", sweepErr)
	}
	if evaluated >= 48 {
		t.Errorf("sweep evaluated all %d points despite cancellation", evaluated)
	}
}

func TestMachineSweepMetricsCacheAcrossObjectives(t *testing.T) {
	job := sweepTestJob(2000, 8000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	space := Space{FixPairing: true, Priorities: []Priority{PriorityMedium, PriorityHigh}}
	byCyc, err := m.SweepAll(ctx, job, space, &SweepOptions{Objective: MinimizeCycles()})
	if err != nil {
		t.Fatal(err)
	}
	st := m.CacheStats()
	if st.Metrics != byCyc.Evaluated {
		t.Fatalf("first sweep cached %d metrics for %d points", st.Metrics, byCyc.Evaluated)
	}
	// Re-sweeping the same space under a different objective must be
	// served entirely from memory.
	byImb, err := m.SweepAll(ctx, job, space, &SweepOptions{Objective: MinimizeImbalance()})
	if err != nil {
		t.Fatal(err)
	}
	st2 := m.CacheStats()
	if hits := st2.Hits - st.Hits; hits != int64(byImb.Evaluated) {
		t.Errorf("re-sweep hit the cache %d times for %d points", hits, byImb.Evaluated)
	}
	// And the rankings must agree with a fresh machine's.
	fresh, err := testMachine(t, &Options{}).SweepAll(ctx, job, space, &SweepOptions{Objective: MinimizeImbalance()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byImb.Entries, fresh.Entries) {
		t.Error("cached re-sweep ranking differs from a fresh sweep")
	}
}

func TestMachineOptimize(t *testing.T) {
	job := sweepTestJob(1500, 6000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := m.Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	pl, res, err := m.Optimize(ctx, job, MinimizeCycles())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles >= base.Cycles {
		t.Errorf("optimized placement (%d cycles) no faster than default (%d)", res.Cycles, base.Cycles)
	}
	rerun, err := m.Run(ctx, job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Cycles != res.Cycles {
		t.Errorf("Optimize Result (%d cycles) does not match its placement's run (%d)", res.Cycles, rerun.Cycles)
	}
}

func TestSessionIterativeWorkflow(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession(job)
	if s.Last() != nil {
		t.Fatal("fresh session has a last result")
	}
	if _, err := s.SuggestFromLast(); err == nil {
		t.Fatal("SuggestFromLast succeeded with no profile run")
	}
	ctx := context.Background()
	base, err := s.Run(ctx, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Last() != base {
		t.Error("Session.Run did not record the result")
	}
	// The paper's loop: profile, derive a plan from the observed compute
	// shares, re-run, and expect an improvement on this imbalanced job.
	pl, err := s.SuggestFromLast()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := s.Run(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cycles >= base.Cycles {
		t.Errorf("suggested placement (%d cycles) no faster than profile run (%d)", tuned.Cycles, base.Cycles)
	}
	if s.Job().Name != job.Name || s.Machine() != m {
		t.Error("session accessors broken")
	}
}

// TestSuggestFromLastEdgeCases covers the profile-derived planner's
// degenerate inputs: no run yet, zero and equal compute shares, and
// single-rank jobs (which cannot pair on an SMT core).
func TestSuggestFromLastEdgeCases(t *testing.T) {
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Before any run: a descriptive error, not a zero placement.
	s := m.NewSession(sweepTestJob(1000, 2000))
	if _, err := s.SuggestFromLast(); err == nil || !strings.Contains(err.Error(), "no completed run") {
		t.Errorf("SuggestFromLast before any run: err = %v", err)
	}

	// withShares fabricates a session whose last profile observed the
	// given per-rank compute shares.
	withShares := func(shares ...float64) *Session {
		res := &Result{}
		for i, sh := range shares {
			res.Ranks = append(res.Ranks, RankSummary{CPU: i, ComputePct: sh})
		}
		s := m.NewSession(sweepTestJob(1000, 2000))
		s.last = res
		return s
	}

	// Equal shares: a valid plan with no priority skew anywhere.
	pl, err := withShares(25, 25, 25, 25).SuggestFromLast()
	if err != nil {
		t.Fatalf("equal shares: %v", err)
	}
	for r, p := range pl.Priority {
		if p != PriorityMedium {
			t.Errorf("equal shares: rank %d planned at %v, want medium", r, p)
		}
	}

	// All-zero shares (e.g. a communication-only profile): still a valid
	// full placement at neutral priorities, not a crash or a skew.
	pl, err = withShares(0, 0, 0, 0).SuggestFromLast()
	if err != nil {
		t.Fatalf("zero shares: %v", err)
	}
	if len(pl.CPU) != 4 || len(pl.Priority) != 4 {
		t.Fatalf("zero shares: placement %v", pl)
	}
	seen := map[int]bool{}
	for r, cpu := range pl.CPU {
		if seen[cpu] {
			t.Errorf("zero shares: CPU %d pinned twice", cpu)
		}
		seen[cpu] = true
		if pl.Priority[r] != PriorityMedium {
			t.Errorf("zero shares: rank %d planned at %v, want medium", r, pl.Priority[r])
		}
	}

	// A single rank cannot pair on a 2-way SMT core: descriptive error.
	if _, err := withShares(100).SuggestFromLast(); err == nil {
		t.Error("single-rank SuggestFromLast succeeded")
	}

	// Odd rank counts are the same failure mode.
	if _, err := withShares(50, 30, 20).SuggestFromLast(); err == nil {
		t.Error("odd-rank SuggestFromLast succeeded")
	}
}

// Options.LoadDrift rescales compute phases at run time, disables the
// result cache (the hook's output is not in the job hash) and is
// rejected in sweeps.
func TestMachineRunLoadDrift(t *testing.T) {
	job := sweepTestJob(3000, 12000)
	ctx := context.Background()
	base, err := testMachine(t, nil).Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	m, err := NewMachine(&Options{LoadDrift: func(rank, phase int, n int64) int64 {
		calls++
		return 3 * n
	}})
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := m.Run(ctx, job, PinInOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("LoadDrift never fired")
	}
	if drifted.Cycles <= base.Cycles {
		t.Errorf("tripled loads did not slow the run: %d vs %d cycles", drifted.Cycles, base.Cycles)
	}
	if _, err := m.Run(ctx, job, PinInOrder(4)); err != nil {
		t.Fatal(err)
	}
	if st := m.CacheStats(); st.Results != 0 {
		t.Errorf("results were cached despite LoadDrift: stats %+v", st)
	}
	for _, err := range m.Sweep(ctx, job, UserSettableSpace(), nil) {
		if err == nil || !strings.Contains(err.Error(), "LoadDrift") {
			t.Errorf("sweep under LoadDrift yielded %v, want a descriptive rejection", err)
		}
		break
	}
}
