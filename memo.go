package smtbalance

import (
	"context"
	"errors"
	"sync"

	"repro/internal/diskcache"
)

// keyRing is a bounded FIFO of memo keys backed by a circular buffer.
// Eviction pops the head in place; the old `order = order[1:]` re-slice
// kept every evicted key's slot reachable from the backing array, so a
// long-running server's eviction order grew without bound even though
// the map stayed capped.
type keyRing[K comparable] struct {
	buf  []K
	head int // index of the oldest element
	n    int // live element count
}

// len returns the number of queued keys.
func (r *keyRing[K]) len() int { return r.n }

// push appends k, growing the buffer geometrically; an owner that only
// pushes after evicting at its cap keeps the buffer at most one
// doubling past that cap forever.
func (r *keyRing[K]) push(k K) {
	if r.n == len(r.buf) {
		grown := make([]K, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = k
	r.n++
}

// pop removes and returns the oldest key, zeroing its slot for reuse.
func (r *keyRing[K]) pop() K {
	if r.n == 0 {
		panic("smtbalance: pop from empty key ring")
	}
	var zero K
	k := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return k
}

// memoCodec is the disk record format of a memo that persists: the
// record name a key is stored under, and the value's encoding.  An
// encoder reports ok=false for a value that cannot round-trip, which is
// then simply not persisted.
type memoCodec[K comparable, V any] struct {
	name   func(K) string
	encode func(V) (data []byte, ok bool)
	decode func([]byte) (V, error)
}

// flight is one in-progress computation of a memo key.  The leader
// publishes exactly once by closing done; followers then read val and
// err, which are immutable afterwards.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// memo is the package's one tiered memoization primitive, used for full
// runs and sweep points (Machine) and for matrix cells and per-topology
// machines (Matrix).  A lookup tries, in order: a bounded in-memory map
// with FIFO eviction; the singleflight table, where identical in-flight
// computations coalesce; and, for the flight's leader only, the
// optional content-addressed disk tier before computing.  Keys describe
// deterministic configurations, so equal keys mean equal values:
// eviction only costs a recomputation, and a caller may take any other
// caller's result.
//
// Counting rule: every Do call is counted exactly once, by how it was
// finally answered — a hit from memory, or a miss that was coalesced
// (it waited on an identical computation, whatever the outcome, even
// if its own ctx ended first), revived from disk, or computed.  So the
// number of computations run is exactly misses − coalesced − diskHits.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	vals    map[K]V          //mtlint:guardedby mu
	order   keyRing[K]       //mtlint:guardedby mu
	flights map[K]*flight[V] //mtlint:guardedby mu
	// disk is nil without a disk tier.
	disk *diskcache.Store //mtlint:guardedby mu

	hits, misses int64 //mtlint:guardedby mu
	coalesced    int64 //mtlint:guardedby mu
	diskHits     int64 //mtlint:guardedby mu
	diskWrites   int64 //mtlint:guardedby mu

	limit int //mtlint:unguarded fixed at construction, read-only afterwards
	// codec is nil for a memo that never persists.
	codec *memoCodec[K, V] //mtlint:unguarded fixed at construction, read-only afterwards
	// clone, if set, copies a value so callers never share a mutable
	// one; nil means values are shared as they are.
	clone func(V) V //mtlint:unguarded fixed at construction, read-only afterwards
}

// copy returns v as the memo hands it to a caller.
func (m *memo[K, V]) copy(v V) V {
	if m.clone == nil {
		return v
	}
	return m.clone(v)
}

// Do returns the value for key: from memory, from an identical
// computation already in flight, or — as that flight's leader — from
// the disk tier or compute.  The leader stores its value in memory,
// persists a computed one, and only then publishes it to the flight's
// followers.  With a clone func, the leader returns its own value and
// every other caller a private copy.  A failed computation is shared
// with its followers but never stored, except that a follower whose own
// ctx is still live does not inherit a leader's cancellation: it
// retries, becoming the new leader.  compute runs at most once per call.
func (m *memo[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	for {
		m.mu.Lock()
		v, hit := m.vals[key]
		var f *flight[V]
		lead := false
		if hit {
			m.hits++
		} else if f = m.flights[key]; f == nil {
			f, lead = &flight[V]{done: make(chan struct{})}, true
			if m.flights == nil {
				m.flights = make(map[K]*flight[V])
			}
			m.flights[key] = f
		}
		disk := m.disk
		m.mu.Unlock()
		if hit {
			return m.copy(v), nil
		}
		if lead {
			return m.lead(key, f, disk, compute)
		}

		var err error
		select {
		case <-f.done:
			v, err = f.val, f.err
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				if err = ctx.Err(); err == nil {
					continue // the leader was cancelled, we were not: retry
				}
			}
		case <-ctx.Done():
			err = ctx.Err()
		}
		m.mu.Lock()
		m.misses++
		m.coalesced++
		m.mu.Unlock()
		if err != nil {
			var zero V
			return zero, err
		}
		return m.copy(v), nil
	}
}

// lead answers key as its flight's leader: the disk tier first, compute
// second.  The flight is forgotten in the same critical section that
// stores the value, so a caller arriving after it finds the memory
// entry rather than a spent flight.
func (m *memo[K, V]) lead(key K, f *flight[V], disk *diskcache.Store, compute func() (V, error)) (V, error) {
	v, revived, corrupt := m.revive(disk, key)
	var err error
	if !revived {
		v, err = compute()
	}
	var held V
	if err == nil {
		held = m.copy(v) // the leader's caller owns v and may mutate it
	}
	m.mu.Lock()
	m.misses++
	if revived {
		m.diskHits++
	}
	if err == nil {
		m.store(key, held)
	}
	delete(m.flights, key)
	m.mu.Unlock()
	if err == nil && !revived {
		m.persist(disk, key, held, corrupt)
	}
	f.val, f.err = held, err
	close(f.done)
	return v, err
}

// store holds v under key, evicting the oldest entry at the cap.  Only
// a key's flight leader stores it, so the key is never already held.
//
//mtlint:locked mu
func (m *memo[K, V]) store(key K, v V) {
	if len(m.vals) >= m.limit {
		delete(m.vals, m.order.pop())
	}
	if m.vals == nil {
		m.vals = make(map[K]V)
	}
	m.vals[key] = v
	m.order.push(key)
}

// revive reads key's record from the disk tier.  Every failure — no
// tier, an absent record, an IO error, a corrupt record — degrades to a
// miss: the disk can slow a cold start down, never break a request.
// corrupt reports a record that was read but could not be decoded.
func (m *memo[K, V]) revive(disk *diskcache.Store, key K) (v V, revived, corrupt bool) {
	if disk == nil {
		return v, false, false
	}
	data, ok, err := disk.Get(m.codec.name(key))
	if err != nil || !ok {
		return v, false, false
	}
	if dv, err := m.codec.decode(data); err == nil {
		return dv, true, false
	}
	return v, false, true
}

// persist writes a computed value to the disk tier, best-effort.  With
// replace it overwrites the existing record, which revive found corrupt;
// otherwise an existing record is kept.
func (m *memo[K, V]) persist(disk *diskcache.Store, key K, v V, replace bool) {
	if disk == nil {
		return
	}
	data, ok := m.codec.encode(v)
	if !ok {
		return
	}
	put := disk.Put
	if replace {
		put = disk.Replace
	}
	if put(m.codec.name(key), data) != nil {
		return
	}
	m.mu.Lock()
	m.diskWrites++
	m.mu.Unlock()
}

// setDisk attaches (or detaches, with nil) the disk tier.  The memo
// must have a codec.
func (m *memo[K, V]) setDisk(store *diskcache.Store) {
	m.mu.Lock()
	m.disk = store
	m.mu.Unlock()
}

// clear drops every held value; the counters and in-flight
// computations survive.
func (m *memo[K, V]) clear() {
	m.mu.Lock()
	m.vals = nil
	m.order = keyRing[K]{}
	m.mu.Unlock()
}

// stats returns the memo's counters, in CacheStats' fields, and the
// number of values held.
func (m *memo[K, V]) stats() (CacheStats, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{
		Hits: m.hits, Misses: m.misses,
		Coalesced: m.coalesced, DiskHits: m.diskHits, DiskWrites: m.diskWrites,
	}, len(m.vals)
}
