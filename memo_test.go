package smtbalance

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/diskcache"
	"repro/internal/sweep"
)

// TestKeyRingFIFO pins the ring's queue discipline and its growth
// contract (geometric, reusable slots).
func TestKeyRingFIFO(t *testing.T) {
	var r keyRing[cacheKey]
	for i := 0; i < 100; i++ {
		r.push(cacheKey{byte(i)})
	}
	if r.len() != 100 {
		t.Fatalf("len = %d, want 100", r.len())
	}
	for i := 0; i < 100; i++ {
		if k := r.pop(); k != (cacheKey{byte(i)}) {
			t.Fatalf("pop %d returned key %v, not FIFO", i, k[0])
		}
	}
	if r.len() != 0 {
		t.Errorf("drained ring has len %d", r.len())
	}
	defer func() {
		if recover() == nil {
			t.Error("pop from empty ring did not panic")
		}
	}()
	r.pop()
}

// TestRunCacheEvictionBounded is the regression test for the FIFO
// eviction leak: the old implementation re-sliced its order queue
// (order = order[1:]), so every evicted key's slot stayed reachable
// from the backing array and a long-running server's queue grew without
// bound.  The ring must stay within one doubling of the cap no matter
// how many entries pass through.
func TestRunCacheEvictionBounded(t *testing.T) {
	runs := memo[cacheKey, *Result]{limit: 8, clone: (*Result).clone}
	mets := memo[cacheKey, sweep.Metrics]{limit: 8}
	for i := 0; i < 10_000; i++ {
		var k cacheKey
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		if _, err := runs.Do(t.Context(), k, func() (*Result, error) { return &Result{Cycles: int64(i)}, nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := mets.Do(t.Context(), k, func() (sweep.Metrics, error) { return sweep.Metrics{Cycles: int64(i)}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(runs.vals); got != 8 {
		t.Errorf("run layer holds %d entries, cap 8", got)
	}
	if got := len(mets.vals); got != 8 {
		t.Errorf("metrics layer holds %d entries, cap 8", got)
	}
	if got := len(runs.order.buf); got > 16 {
		t.Errorf("run eviction queue backing array grew to %d slots for cap 8", got)
	}
	if got := len(mets.order.buf); got > 16 {
		t.Errorf("metrics eviction queue backing array grew to %d slots for cap 8", got)
	}
	// FIFO: the survivors are exactly the 8 newest keys.
	for i := 10_000 - 8; i < 10_000; i++ {
		var k cacheKey
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		if _, ok := runs.vals[k]; !ok {
			t.Errorf("recent key %d evicted before older ones", i)
		}
	}
}

// TestMemoConcurrentClear hammers one memo from many goroutines with
// overlapping keys under a tiny cap while another clears it — the
// invariants (entry count at or below cap, one count per call, the
// sims identity) must hold and the race detector must stay quiet.
func TestMemoConcurrentClear(t *testing.T) {
	c := memo[cacheKey, *Result]{limit: 4, clone: (*Result).clone}
	var computed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var k cacheKey
				k[0] = byte((g + i) % 16)
				_, err := c.Do(t.Context(), k, func() (*Result, error) {
					computed.Add(1)
					return &Result{Cycles: int64(i)}, nil
				})
				if err != nil {
					t.Error(err)
				}
				if i%100 == 0 && g == 0 {
					c.clear()
				}
			}
		}(g)
	}
	wg.Wait()
	st, held := c.stats()
	if held > 4 {
		t.Errorf("cap violated: %d held", held)
	}
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, 8*500)
	}
	if sims := st.Misses - st.Coalesced - st.DiskHits; sims != computed.Load() {
		t.Errorf("stats say %d computations (%+v), compute ran %d times", sims, st, computed.Load())
	}
}

// TestMemoOneLeaderPerKey pins the flight protocol: callers arriving
// while a key computes follow its one leader and share its value, a
// different key computes independently, and a key dropped from memory
// computes afresh.
func TestMemoOneLeaderPerKey(t *testing.T) {
	c := memo[cacheKey, int]{limit: 8}
	var computes [2]atomic.Int64
	release := make(chan struct{})
	const followers = 3
	var wg sync.WaitGroup
	vals := make([][]int, 2)
	for k := range vals {
		vals[k] = make([]int, 1+followers)
		started := make(chan struct{})
		call := func(ctx context.Context, i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := c.Do(ctx, cacheKey{byte(k)}, func() (int, error) {
					computes[k].Add(1)
					close(started)
					<-release
					return 40 + k, nil
				})
				if err != nil {
					t.Error(err)
				}
				vals[k][i] = v
			}()
		}
		call(t.Context(), 0)
		<-started
		for i := 1; i <= followers; i++ {
			ctx := newWaitingCtx(t.Context())
			call(ctx, i)
			<-ctx.waiting
		}
	}
	close(release)
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1 leader", k, n)
		}
		for i, v := range vals[k] {
			if v != 40+k {
				t.Errorf("key %d caller %d saw %d, want %d", k, i, v, 40+k)
			}
		}
	}
	if st, _ := c.stats(); st.Misses != 2*(1+followers) || st.Coalesced != 2*followers {
		t.Errorf("stats %+v, want %d misses of which %d coalesced", st, 2*(1+followers), 2*followers)
	}
	c.clear()
	if _, err := c.Do(t.Context(), cacheKey{0}, func() (int, error) { computes[0].Add(1); return 40, nil }); err != nil {
		t.Fatal(err)
	}
	if n := computes[0].Load(); n != 2 {
		t.Errorf("a cleared key was not computed afresh (%d computations)", n)
	}
}

// waitingCtx closes waiting the first time its Done channel is taken —
// in memo.Do that is the moment a follower, already holding its
// flight, blocks on it.  Tests order goroutines on it instead of
// sleeping.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// memoCall is one Do call's outcome.
type memoCall struct {
	res *Result
	err error
}

// memoHarness drives a *Result memo with a small test codec on a
// private disk tier, counting every compute.
type memoHarness struct {
	t        *testing.T
	m        *memo[cacheKey, *Result]
	disk     *diskcache.Store
	computed atomic.Int64
	handed   []*Result // every value a caller received
}

var memoKey = cacheKey{7}

func newMemoHarness(t *testing.T) *memoHarness {
	disk, err := diskcache.Open(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	m := &memo[cacheKey, *Result]{
		limit: 8,
		codec: &memoCodec[cacheKey, *Result]{
			name: func(k cacheKey) string { return diskKey(k, "run") },
			encode: func(r *Result) ([]byte, bool) {
				return strconv.AppendInt(nil, r.Cycles, 10), true
			},
			decode: func(data []byte) (*Result, error) {
				n, err := strconv.ParseInt(string(data), 10, 64)
				return testResult(n), err
			},
		},
		clone: (*Result).clone,
	}
	m.setDisk(disk)
	return &memoHarness{t: t, m: m, disk: disk}
}

func testResult(cycles int64) *Result {
	return &Result{Cycles: cycles, Ranks: []RankSummary{{Instructions: cycles}}}
}

// compute returns a compute func producing a result of the given
// cycles.
func (h *memoHarness) compute(cycles int64) func() (*Result, error) {
	return func() (*Result, error) {
		h.computed.Add(1)
		return testResult(cycles), nil
	}
}

// blocked returns a compute func that signals started, then waits for
// release (returning a result of the given cycles, or err if set) or
// for ctx's cancellation.
func (h *memoHarness) blocked(ctx context.Context, cycles int64, err error) (compute func() (*Result, error), started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	return func() (*Result, error) {
		h.computed.Add(1)
		close(started)
		select {
		case <-release:
			if err != nil {
				return nil, err
			}
			return testResult(cycles), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, started, release
}

// do runs one Do call in the background.
func (h *memoHarness) do(ctx context.Context, compute func() (*Result, error)) <-chan memoCall {
	ch := make(chan memoCall, 1)
	go func() {
		res, err := h.m.Do(ctx, memoKey, compute)
		ch <- memoCall{res, err}
	}()
	return ch
}

// want waits for a call and checks its outcome: a result of the given
// cycles, or (cycles < 0) the error wantErr.
func (h *memoHarness) want(ch <-chan memoCall, cycles int64, wantErr error) {
	h.t.Helper()
	c := <-ch
	switch {
	case cycles < 0:
		if !errors.Is(c.err, wantErr) {
			h.t.Errorf("got (%v, %v), want error %v", c.res, c.err, wantErr)
		}
	case c.err != nil || c.res.Cycles != cycles:
		h.t.Errorf("got (%+v, %v), want a %d-cycle result", c.res, c.err, cycles)
	default:
		h.handed = append(h.handed, c.res)
	}
}

// TestMemoDo drives memo.Do through every way a call can be answered
// and pins each one's exact counter deltas.  Goroutines are ordered on
// channels (waitingCtx, compute's started/release), never on sleeps.
func TestMemoDo(t *testing.T) {
	errBoom := errors.New("boom")
	type deltas struct{ hits, misses, coalesced, diskHits, diskWrites, computed int64 }
	cases := []struct {
		name  string
		setup func(h *memoHarness)
		run   func(h *memoHarness)
		want  deltas
		held  int
	}{{
		name: "computed",
		run:  func(h *memoHarness) { h.want(h.do(t.Context(), h.compute(1)), 1, nil) },
		want: deltas{misses: 1, diskWrites: 1, computed: 1},
		held: 1,
	}, {
		name:  "hit",
		setup: func(h *memoHarness) { h.want(h.do(t.Context(), h.compute(1)), 1, nil) },
		run: func(h *memoHarness) {
			h.want(h.do(t.Context(), h.compute(2)), 1, nil)
			h.want(h.do(t.Context(), h.compute(2)), 1, nil)
		},
		want: deltas{hits: 2},
		held: 1,
	}, {
		name: "disk revival",
		setup: func(h *memoHarness) {
			if err := h.disk.Put(diskKey(memoKey, "run"), []byte("5")); err != nil {
				t.Fatal(err)
			}
		},
		run:  func(h *memoHarness) { h.want(h.do(t.Context(), h.compute(1)), 5, nil) },
		want: deltas{misses: 1, diskHits: 1},
		held: 1,
	}, {
		name: "corrupt disk record degrades to a compute",
		setup: func(h *memoHarness) {
			if err := h.disk.Put(diskKey(memoKey, "run"), []byte("garbage")); err != nil {
				t.Fatal(err)
			}
		},
		run: func(h *memoHarness) { h.want(h.do(t.Context(), h.compute(1)), 1, nil) },
		// The store is write-once: a Put over the existing record is a
		// successful no-op, so it still counts as a write.
		want: deltas{misses: 1, diskWrites: 1, computed: 1},
		held: 1,
	}, {
		name: "coalesced followers, then a hit",
		run: func(h *memoHarness) {
			compute, started, release := h.blocked(t.Context(), 3, nil)
			leader := h.do(t.Context(), compute)
			<-started
			var followers []<-chan memoCall
			for i := 0; i < 2; i++ {
				ctx := newWaitingCtx(t.Context())
				followers = append(followers, h.do(ctx, h.compute(9)))
				<-ctx.waiting
			}
			close(release)
			h.want(leader, 3, nil)
			for _, f := range followers {
				h.want(f, 3, nil)
			}
			h.want(h.do(t.Context(), h.compute(9)), 3, nil)
		},
		want: deltas{hits: 1, misses: 3, coalesced: 2, diskWrites: 1, computed: 1},
		held: 1,
	}, {
		name: "cancelled leader hands off to a live follower",
		run: func(h *memoHarness) {
			lctx, cancel := context.WithCancel(t.Context())
			compute, started, _ := h.blocked(lctx, 3, nil)
			leader := h.do(lctx, compute)
			<-started
			fctx := newWaitingCtx(t.Context())
			follower := h.do(fctx, h.compute(4))
			<-fctx.waiting
			cancel()
			h.want(leader, -1, context.Canceled)
			h.want(follower, 4, nil)
		},
		want: deltas{misses: 2, diskWrites: 1, computed: 2},
		held: 1,
	}, {
		name: "deterministic error shared with followers",
		run: func(h *memoHarness) {
			compute, started, release := h.blocked(t.Context(), 0, errBoom)
			leader := h.do(t.Context(), compute)
			<-started
			fctx := newWaitingCtx(t.Context())
			follower := h.do(fctx, h.compute(4))
			<-fctx.waiting
			close(release)
			h.want(leader, -1, errBoom)
			h.want(follower, -1, errBoom)
		},
		want: deltas{misses: 2, coalesced: 1, computed: 1},
		held: 0,
	}, {
		name: "follower's own ctx cancelled while waiting",
		run: func(h *memoHarness) {
			compute, started, release := h.blocked(t.Context(), 3, nil)
			leader := h.do(t.Context(), compute)
			<-started
			parent, cancel := context.WithCancel(t.Context())
			fctx := newWaitingCtx(parent)
			follower := h.do(fctx, h.compute(4))
			<-fctx.waiting
			cancel()
			h.want(follower, -1, context.Canceled)
			close(release)
			h.want(leader, 3, nil)
		},
		want: deltas{misses: 2, coalesced: 1, diskWrites: 1, computed: 1},
		held: 1,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newMemoHarness(t)
			if tc.setup != nil {
				tc.setup(h)
			}
			before, _ := h.m.stats()
			computedBefore := h.computed.Load()
			tc.run(h)
			after, held := h.m.stats()
			got := deltas{
				hits:       after.Hits - before.Hits,
				misses:     after.Misses - before.Misses,
				coalesced:  after.Coalesced - before.Coalesced,
				diskHits:   after.DiskHits - before.DiskHits,
				diskWrites: after.DiskWrites - before.DiskWrites,
				computed:   h.computed.Load() - computedBefore,
			}
			if got != tc.want {
				t.Errorf("counter deltas %+v, want %+v", got, tc.want)
			}
			if got.misses != got.coalesced+got.diskHits+got.computed {
				t.Errorf("misses %d != coalesced %d + disk hits %d + computed %d",
					got.misses, got.coalesced, got.diskHits, got.computed)
			}
			if held != tc.held {
				t.Errorf("memo holds %d values, want %d", held, tc.held)
			}
			// No two callers — nor a caller and the held copy — share a
			// Ranks backing array.
			owners := make(map[*RankSummary]int)
			for i, r := range h.handed {
				if j, dup := owners[&r.Ranks[0]]; dup {
					t.Errorf("callers %d and %d share a Ranks array", j, i)
				}
				owners[&r.Ranks[0]] = i
			}
			if v, ok := h.m.vals[memoKey]; ok {
				if j, dup := owners[&v.Ranks[0]]; dup {
					t.Errorf("caller %d shares the held value's Ranks array", j)
				}
			}
		})
	}
}

// TestMatrixCellStatsHandoff is the regression test for CellStats
// over-counting a leader handoff: a cell whose leader was cancelled and
// whose waiting follower then evaluated it is two evaluations, not
// three (the old loop counted a miss on every retry pass).
func TestMatrixCellStatsHandoff(t *testing.T) {
	mx := NewMatrix()
	lctx, cancel := context.WithCancel(t.Context())
	started := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := mx.cells.Do(lctx, memoKey, func() ([]MatrixEntry, error) {
			close(started)
			<-lctx.Done()
			return nil, lctx.Err()
		})
		leader <- err
	}()
	<-started
	fctx := newWaitingCtx(t.Context())
	follower := make(chan error, 1)
	go func() {
		_, err := mx.cells.Do(fctx, memoKey, func() ([]MatrixEntry, error) {
			return []MatrixEntry{{Cycles: 1}}, nil
		})
		follower <- err
	}()
	<-fctx.waiting
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	if err := <-follower; err != nil {
		t.Fatalf("follower: %v", err)
	}
	if hits, misses, cells := mx.CellStats(); hits != 0 || misses != 2 || cells != 1 {
		t.Errorf("CellStats = %d/%d/%d, want 0 hits, 2 evaluations, 1 cell", hits, misses, cells)
	}
}
