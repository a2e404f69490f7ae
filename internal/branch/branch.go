// Package branch implements the shared branch predictor of a POWER5 core:
// a gshare-style global-history predictor backed by 2-bit saturating
// counters.  Both SMT contexts of a core share the predictor tables (as on
// the real machine), so a branch-heavy co-runner can degrade its sibling's
// prediction accuracy — one of the shared-resource effects the paper's
// priority mechanism redistributes.
package branch

import "encoding/binary"

// Predictor is a gshare predictor with per-context global history.
type Predictor struct {
	table []uint8 // 2-bit saturating counters
	mask  uint32
	hist  [2]uint32 // per-context global history (contexts share the table)
	stats [2]Stats
}

// Stats counts predictions for one context.
type Stats struct {
	Predictions uint64
	Mispredicts uint64
}

// MispredictRate returns the fraction of mispredicted branches.
func (s Stats) MispredictRate() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Predictions)
}

// New returns a predictor with 2^bits counters.  bits must be in [4, 24].
func New(bits int) *Predictor {
	if bits < 4 || bits > 24 {
		panic("branch: table bits out of range")
	}
	n := 1 << bits
	p := &Predictor{table: make([]uint8, n), mask: uint32(n - 1)}
	// Weakly taken initial state: loops predict well from the start.
	for i := range p.table {
		p.table[i] = 2
	}
	return p
}

// Predict consults and updates the predictor for a branch at pc with the
// given architectural outcome, on behalf of context ctx (0 or 1).  It
// returns true when the prediction was correct.
func (p *Predictor) Predict(ctx int, pc uint32, taken bool) bool {
	idx := (pc ^ p.hist[ctx]) & p.mask
	ctr := p.table[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		p.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		p.table[idx] = ctr - 1
	}
	h := p.hist[ctx] << 1
	if taken {
		h |= 1
	}
	p.hist[ctx] = h & p.mask
	p.stats[ctx].Predictions++
	correct := pred == taken
	if !correct {
		p.stats[ctx].Mispredicts++
	}
	return correct
}

// Stats returns the counters for context ctx.
func (p *Predictor) Stats(ctx int) Stats { return p.stats[ctx] }

// Reset clears history, counters and statistics.
func (p *Predictor) Reset() {
	for i := range p.table {
		p.table[i] = 2
	}
	p.hist = [2]uint32{}
	p.stats = [2]Stats{}
}

// initWord is eight weakly-taken counters: the table word of a
// predictor that has never seen a branch there.
const initWord = 0x0202020202020202

// FFNorm appends the predictor's behavioral state (counter table and
// per-context histories) for the phase-skip engine's machine snapshots;
// see isa.FastForwarder for the capture/advance contract.  The table is
// captured as its 8-byte words that differ from the weakly-taken initial
// state, each as (word index, word), then a terminator, so the norm
// grows with the branches a job touches rather than with the table.
// Two norms of predictors of one size are equal exactly when their
// tables and histories are.
func (p *Predictor) FFNorm(b []byte) []byte {
	for i := 0; i < len(p.table); i += 8 {
		if w := binary.LittleEndian.Uint64(p.table[i:]); w != initWord {
			b = binary.LittleEndian.AppendUint32(b, uint32(i/8))
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, ^uint32(0))
	for _, h := range p.hist {
		b = binary.LittleEndian.AppendUint32(b, h)
	}
	return b
}

// FFCtrs appends the extensive prediction counters.
func (p *Predictor) FFCtrs(c []int64) []int64 {
	for t := range p.stats {
		c = append(c, int64(p.stats[t].Predictions), int64(p.stats[t].Mispredicts))
	}
	return c
}

// FFAdvance applies k windows' worth of counter deltas, consuming this
// predictor's prefix of d and returning the rest.
func (p *Predictor) FFAdvance(k int64, d []int64) []int64 {
	for t := range p.stats {
		p.stats[t].Predictions += uint64(k * d[0])
		p.stats[t].Mispredicts += uint64(k * d[1])
		d = d[2:]
	}
	return d
}
