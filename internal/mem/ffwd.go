package mem

import "encoding/binary"

// Fast-forward state capture for the phase-skip engine (see
// isa.FastForwarder for the contract).
//
// The subtlety here is the LRU stamps: they are access-clock values, so
// a line that stays resident without being touched keeps an absolute
// stamp that can never recur — capturing stamps relative to the clock
// would permanently block snapshot matches.  But replacement only ever
// compares stamps *within a set* (the victim is the minimum), so the
// behavioral state of a set is exactly its recency ORDER: the tags of
// the valid ways sorted oldest-to-newest, plus the count of invalid
// ways (invalid ways are interchangeable victims).  That encoding is
// both exact and recurrence-friendly.
//
// On advance, nothing in the arrays needs touching: existing stamps
// keep their order, and future accesses stamp with the (advanced) clock,
// which exceeds every resident stamp just as in an exact run.

// FFNorm appends the cache's replacement-relevant state.  Only live sets
// are visited (each entry is prefixed with its set index), in ascending
// set order, so the cost scales with the resident footprint, not the
// cache geometry — essential for the 32 MB L3 — and the bytes are those
// of a walk over every set that skips the empty ones.
func (c *Cache) FFNorm(b []byte) []byte {
	ways := c.cfg.Ways
	var orderBuf [64]int
	for set := range c.liveSets() {
		base := set * ways
		live := 0
		for w := 0; w < ways; w++ {
			if c.stamps[base+w] != 0 {
				live++
			}
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(set))
		b = append(b, byte(ways-live))
		// Insertion-sort the live ways by stamp (stamps are unique:
		// every access increments the clock and writes at most one).
		order := orderBuf[:0]
		if ways > len(orderBuf) {
			order = make([]int, 0, ways)
		}
		for w := 0; w < ways; w++ {
			i := base + w
			if c.stamps[i] == 0 {
				continue
			}
			j := len(order)
			order = append(order, i)
			for j > 0 && c.stamps[order[j-1]] > c.stamps[i] {
				order[j] = order[j-1]
				j--
			}
			order[j] = i
		}
		for _, i := range order {
			b = binary.LittleEndian.AppendUint64(b, c.tags[i])
		}
	}
	// Terminator distinguishes "no more sets" from a set-0 entry of a
	// following cache in a concatenated snapshot.
	return binary.LittleEndian.AppendUint32(b, ^uint32(0))
}

// FFCtrs appends the cache's extensive counters (clock and statistics).
func (c *Cache) FFCtrs(cs []int64) []int64 {
	return append(cs, int64(c.clock), int64(c.stats.Accesses), int64(c.stats.Misses))
}

// FFAdvance applies k windows' worth of counter deltas, consuming this
// cache's prefix of d and returning the rest.
func (c *Cache) FFAdvance(k int64, d []int64) []int64 {
	c.clock += uint64(k * d[0])
	c.stats.Accesses += uint64(k * d[1])
	c.stats.Misses += uint64(k * d[2])
	return d[3:]
}

// FFNorm appends the whole hierarchy's replacement state.
func (h *Hierarchy) FFNorm(b []byte) []byte {
	for _, c := range h.l1 {
		b = c.FFNorm(b)
	}
	b = h.l2.FFNorm(b)
	return h.l3.FFNorm(b)
}

// FFCtrs appends the whole hierarchy's counters.
func (h *Hierarchy) FFCtrs(cs []int64) []int64 {
	for _, c := range h.l1 {
		cs = c.FFCtrs(cs)
	}
	cs = h.l2.FFCtrs(cs)
	return h.l3.FFCtrs(cs)
}

// FFAdvance advances the whole hierarchy's counters.
func (h *Hierarchy) FFAdvance(k int64, d []int64) []int64 {
	for _, c := range h.l1 {
		d = c.FFAdvance(k, d)
	}
	d = h.l2.FFAdvance(k, d)
	return h.l3.FFAdvance(k, d)
}
