package smtbalance

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// bindCountingPolicy counts how many simulations actually bind it —
// Bind runs exactly once per real simulator execution, never for cache
// hits or coalesced followers — making it a precise probe for the
// singleflight guarantee.
type bindCountingPolicy struct{ binds *atomic.Int64 }

func (p bindCountingPolicy) Name() string                            { return "bindcount" }
func (p bindCountingPolicy) Params() map[string]string               { return nil }
func (p bindCountingPolicy) Observe(IterationStats) []PriorityAction { return nil }
func (p bindCountingPolicy) Bind(topo Topology, pl Placement) Policy {
	p.binds.Add(1)
	return p
}

// TestRunPolicyCoalescesIdenticalRuns is the machine-level singleflight
// proof: N identical concurrent runs on a cold cache must execute
// exactly one simulation, and every caller must get the same result.
func TestRunPolicyCoalescesIdenticalRuns(t *testing.T) {
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Name: "herd", Ranks: [][]Phase{
		{Compute("fpu", 120_000), Barrier()},
		{Compute("fpu", 480_000), Barrier()},
		{Compute("fpu", 120_000), Barrier()},
		{Compute("fpu", 480_000), Barrier()},
	}}
	pl, err := m.Topology().PinInOrder(4)
	if err != nil {
		t.Fatal(err)
	}
	var binds atomic.Int64
	pol := bindCountingPolicy{binds: &binds}

	const herd = 8
	results := make([]*Result, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.RunPolicy(context.Background(), job, pl, pol)
			if err != nil {
				t.Errorf("herd run %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := binds.Load(); got != 1 {
		t.Errorf("herd of %d bound the policy %d times, want exactly 1 simulation", herd, got)
	}
	st := m.CacheStats()
	if sims := st.Misses - st.Coalesced - st.DiskHits; sims != 1 {
		t.Errorf("cache says %d simulations ran (stats %+v), want 1", sims, st)
	}
	for i := 1; i < herd; i++ {
		if results[i] == nil || results[0] == nil {
			continue // already reported
		}
		if results[i].Cycles != results[0].Cycles || !reflect.DeepEqual(results[i].Ranks, results[0].Ranks) {
			t.Errorf("herd result %d differs from result 0", i)
		}
		if results[i] == results[0] || &results[i].Ranks[0] == &results[0].Ranks[0] {
			t.Errorf("herd results %d and 0 share mutable memory", i)
		}
	}
}

// TestUseDiskCacheRoundTrip persists a run through the disk tier and
// revives it on a fresh machine: the revived result must be
// indistinguishable — numerically bit-equal, trace included — and cost
// zero simulations.
func TestUseDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	job := Job{Name: "disk", Ranks: [][]Phase{
		{Compute("fpu", 3000), Barrier(), Compute("l1", 2000), Barrier()},
		{Compute("fpu", 12000), Barrier(), Compute("l1", 8000), Barrier()},
		{Compute("fpu", 3000), Barrier(), Compute("l1", 2000), Barrier()},
		{Compute("fpu", 12000), Barrier(), Compute("l1", 8000), Barrier()},
	}}

	m1, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	pl, err := m1.Topology().PinInOrder(4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m1.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if st := m1.CacheStats(); st.DiskWrites == 0 {
		t.Fatalf("run wrote nothing to the disk tier: %+v", st)
	}

	m2, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	revived, err := m2.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if revived.Cycles != first.Cycles || revived.Seconds != first.Seconds ||
		revived.ImbalancePct != first.ImbalancePct || revived.Iterations != first.Iterations ||
		revived.SkippedCycles != first.SkippedCycles {
		t.Errorf("revived result differs:\n%+v\nvs\n%+v", revived, first)
	}
	if !reflect.DeepEqual(revived.Ranks, first.Ranks) {
		t.Errorf("revived ranks differ:\n%+v\nvs\n%+v", revived.Ranks, first.Ranks)
	}
	if revived.Timeline(72) != first.Timeline(72) {
		t.Errorf("revived trace renders differently:\n%s\nvs\n%s", revived.Timeline(72), first.Timeline(72))
	}
	st := m2.CacheStats()
	if st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1 (%+v)", st.DiskHits, st)
	}
	if sims := st.Misses - st.Coalesced - st.DiskHits; sims != 0 {
		t.Errorf("revival executed %d simulations, want 0 (%+v)", sims, st)
	}

	// ClearCache drops memory only: a third lookup revives from disk
	// again rather than re-simulating.
	m2.ClearCache()
	if _, err := m2.Run(context.Background(), job, pl); err != nil {
		t.Fatal(err)
	}
	if st := m2.CacheStats(); st.DiskHits != 2 {
		t.Errorf("post-clear lookup did not revive from disk: %+v", st)
	}
}

// TestSweepSharesDiskCache runs the same sweep on two machines sharing
// one cache directory: the second must rank identically while reviving
// every point from disk.
func TestSweepSharesDiskCache(t *testing.T) {
	dir := t.TempDir()
	job := Job{Ranks: [][]Phase{
		{Compute("fpu", 2000), Barrier()},
		{Compute("fpu", 8000), Barrier()},
		{Compute("fpu", 2000), Barrier()},
		{Compute("fpu", 8000), Barrier()},
	}}
	space := Space{Priorities: []Priority{4, 6}, FixPairing: true}

	sweepOn := func() (*SweepResult, CacheStats) {
		m, err := NewMachine(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.UseDiskCache(dir); err != nil {
			t.Fatal(err)
		}
		res, err := m.SweepAll(context.Background(), job, space, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.CacheStats()
	}

	first, st1 := sweepOn()
	if st1.DiskWrites == 0 {
		t.Fatalf("sweep wrote nothing to disk: %+v", st1)
	}
	second, st2 := sweepOn()
	if !reflect.DeepEqual(second.Entries, first.Entries) {
		t.Errorf("disk-revived sweep ranks differently:\n%+v\nvs\n%+v", second.Entries, first.Entries)
	}
	if st2.DiskHits != int64(second.Evaluated) {
		t.Errorf("second sweep revived %d of %d points from disk (%+v)", st2.DiskHits, second.Evaluated, st2)
	}
	if sims := st2.Misses - st2.Coalesced - st2.DiskHits; sims != 0 {
		t.Errorf("second sweep executed %d simulations, want 0 (%+v)", sims, st2)
	}
}

// TestDiskCacheCorruptRecordDegrades truncates a persisted record and
// checks the cache degrades to a re-simulation instead of serving (or
// choking on) garbage, and that the re-simulation heals the record: once
// the memory tier is cleared, the next request is a disk hit.
func TestDiskCacheCorruptRecordDegrades(t *testing.T) {
	dir := t.TempDir()
	job := Job{Ranks: [][]Phase{
		{Compute("fpu", 3000), Barrier()},
		{Compute("fpu", 9000), Barrier()},
	}}
	m1, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	pl, err := m1.Topology().PinInOrder(2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m1.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every run record in place.
	corrupted := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, "-run.json") {
			corrupted++
			return os.WriteFile(path, []byte(`{"seconds": "not a number"`), 0o644)
		}
		return nil
	})
	if err != nil || corrupted == 0 {
		t.Fatalf("corrupted %d records, err %v", corrupted, err)
	}

	m2, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.UseDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	again, err := m2.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatalf("corrupt record broke the run: %v", err)
	}
	if again.Cycles != first.Cycles {
		t.Errorf("re-simulated result differs: %d vs %d cycles", again.Cycles, first.Cycles)
	}
	st := m2.CacheStats()
	if st.DiskHits != 0 {
		t.Errorf("corrupt record counted as a disk hit: %+v", st)
	}
	if sims := st.Misses - st.Coalesced - st.DiskHits; sims != 1 {
		t.Errorf("corrupt record should force exactly 1 simulation, got %d (%+v)", sims, st)
	}

	m2.ClearCache()
	healed, err := m2.Run(context.Background(), job, pl)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Cycles != first.Cycles {
		t.Errorf("healed record differs: %d vs %d cycles", healed.Cycles, first.Cycles)
	}
	st2 := m2.CacheStats()
	if st2.DiskHits-st.DiskHits != 1 {
		t.Errorf("request after the re-simulation was not a disk hit: %+v", st2)
	}
	if sims := (st2.Misses - st2.Coalesced - st2.DiskHits) - (st.Misses - st.Coalesced - st.DiskHits); sims != 0 {
		t.Errorf("request after the re-simulation ran %d simulations, want 0 (%+v)", sims, st2)
	}
}

// TestUseDiskCacheRejectsBadDir pins the error path: an unusable
// directory must fail loudly at attach time, not silently degrade.
func TestUseDiskCacheRejectsBadDir(t *testing.T) {
	m, err := NewMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UseDiskCache(""); err == nil {
		t.Error("UseDiskCache(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.UseDiskCache(file); err == nil {
		t.Error("UseDiskCache over a regular file succeeded")
	}
}

// TestEncodeResultRequiresTrace pins the persistence guard: a result
// without its trace cannot round-trip and must not be persisted.
func TestEncodeResultRequiresTrace(t *testing.T) {
	if _, ok := encodeResult(&Result{Cycles: 1}); ok {
		t.Error("traceless result claimed to be persistable")
	}
}

// TestDecodeResultRejectsGarbage pins decode's failure modes: syntax
// errors and structurally invalid traces both surface as errors.
func TestDecodeResultRejectsGarbage(t *testing.T) {
	if _, err := decodeResult([]byte(`{`)); err == nil {
		t.Error("bad JSON decoded")
	}
	// Valid JSON, impossible trace: an interval past the recorded end.
	bad := `{"seconds": 1, "cycles": 10, "ranks": [], "trace_end": 5, "trace": [[{"s": 1, "f": 0, "t": 9}]]}`
	if _, err := decodeResult([]byte(bad)); err == nil {
		t.Error("out-of-range trace decoded")
	}
	if _, err := decodeMetrics([]byte(`[`)); err == nil {
		t.Error("bad metrics JSON decoded")
	}
}
