package trace

// Fast-forward support for the phase-skip engine (internal/mpisim).
// When the engine proves that the window [t0, t1) of a run will repeat k
// more times, it cannot tick through the repeats — so the trace must
// synthesize the interval records those windows would have produced.
//
// FFNorm captures the part of the recorder's state that shapes future
// records: the current state and started flag per rank.  curFrom is
// deliberately excluded — it is the absolute time of the last state
// change, a historical fact that can lie arbitrarily far in the past
// (a rank idling across many windows) without affecting whether the
// window repeats.  Its one behavioral role, the From of the next
// appended interval, is reconstructed exactly by FFReplicate.
//
// FFCounts exposes the per-rank interval counts so the engine can
// delimit "the intervals appended during the window".

// FFCounts appends the number of recorded intervals per rank to c.
func (t *Trace) FFCounts(c []int) []int {
	for r := range t.ranks {
		c = append(c, len(t.ranks[r]))
	}
	return c
}

// FFNorm appends the recorder's normalized state.
func (t *Trace) FFNorm(b []byte) []byte {
	for r := range t.ranks {
		f := byte(0)
		if t.started[r] {
			f = 0x80
		}
		b = append(b, f|byte(t.cur[r]))
	}
	return b
}

// FFReplicate appends k copies of the window's interval records, shifted
// by one window period q each, as if the window [windowStart,
// windowStart+q) had been executed k more times.  startCounts are the
// per-rank interval counts (FFCounts) at the start of the window.
//
// Within each replica, interval i>0 keeps its in-window position (shift
// by j·q).  The first interval's From is instead the previous window's
// last state change: on the first match the change that opened the
// window's first interval belongs to the pre-periodic prefix, so its
// blind shift would not land on the window period.  Open intervals are
// carried by advancing curFrom a full k·q iff the last state change
// happened inside the window.
func (t *Trace) FFReplicate(startCounts []int, k, q, windowStart int64) {
	for r := range t.ranks {
		w := t.ranks[r][startCounts[r]:]
		if m := len(w); m > 0 {
			last := w[m-1].To
			for j := int64(1); j <= k; j++ {
				for i := range w {
					from := w[i].From + j*q
					if i == 0 {
						from = last + (j-1)*q
					}
					t.ranks[r] = append(t.ranks[r], Interval{
						State: w[i].State,
						From:  from,
						To:    w[i].To + j*q,
					})
				}
			}
		}
		if t.started[r] && t.curFrom[r] > windowStart {
			t.curFrom[r] += k * q
		}
	}
}
