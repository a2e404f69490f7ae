package core

import "repro/internal/hwpri"

// Action is one priority write a balancing decision requests: set rank
// Rank's hardware thread priority to Prio through the procfs interface.
type Action struct {
	Rank int
	Prio hwpri.Priority
}

// Ladder is the per-core priority state machine every balancer shares:
// the two ranks of each core form a pair, and each pair carries a signed
// priority difference on the Section VI ladder (PrioritiesFor) that
// moves one step at a time.  Balancers differ only in the signal they
// turn into a direction and in the budget they allow; the hysteresis,
// the clamp and the writes live here.
type Ladder struct {
	hysteresis int
	pairs      [][2]int // rank pairs sharing a core, in core order
	// diff is the current signed priority difference per pair: positive
	// favors pairs[i][0].
	diff []int
	// streak counts consecutive steps that asked for lastDir's
	// direction.
	streak  []int
	lastDir []int
}

// NewLadder pairs the ranks of a placement (rank -> logical CPU) by the
// core they share (cpu/2): the POWER5 priority mechanism arbitrates
// decode cycles between the two contexts of one core and nothing else.
// A move needs hysteresis consecutive steps in the same direction.
// Cores are walked up to the highest one in use, so a placement pinned
// to high core indices (a 2-rank job on the second chip) is managed
// too; a core with only one rank yields no pair.
func NewLadder(cpu []int, hysteresis int) *Ladder {
	byCore := map[int][]int{}
	maxCore := 0
	for rank, c := range cpu {
		byCore[c/2] = append(byCore[c/2], rank)
		maxCore = max(maxCore, c/2)
	}
	l := &Ladder{hysteresis: hysteresis}
	for c := 0; c <= maxCore; c++ {
		if ranks := byCore[c]; len(ranks) == 2 {
			l.pairs = append(l.pairs, [2]int{ranks[0], ranks[1]})
		}
	}
	l.diff = make([]int, len(l.pairs))
	l.streak = make([]int, len(l.pairs))
	l.lastDir = make([]int, len(l.pairs))
	return l
}

// Pairs returns the rank pairs the ladder manages.
func (l *Ladder) Pairs() [][2]int { return l.pairs }

// Diff returns pair i's current signed priority difference.
func (l *Ladder) Diff(i int) int { return l.diff[i] }

// Diffs returns a copy of every pair's current signed difference.
func (l *Ladder) Diffs() []int { return append([]int(nil), l.diff...) }

// Step feeds pair i one observation's direction: +1 toward favoring
// pairs[i][0], -1 toward favoring pairs[i][1], 0 for balanced.  A zero
// resets the streak and a changed direction restarts it; once the streak
// reaches the hysteresis the difference moves one step, bounded at
// ±budget (a difference already beyond a shrunk budget is pulled back to
// it).  A move returns the pair's two writes in pair order; no move
// returns nil.
func (l *Ladder) Step(i, dir, budget int) []Action {
	if dir == 0 {
		l.streak[i], l.lastDir[i] = 0, 0
		return nil
	}
	if dir != l.lastDir[i] {
		l.lastDir[i] = dir
		l.streak[i] = 1
	} else {
		l.streak[i]++
	}
	if l.streak[i] < l.hysteresis {
		return nil
	}
	l.streak[i] = 0
	want := min(max(l.diff[i]+dir, -budget), budget)
	if want == l.diff[i] {
		return nil
	}
	l.diff[i] = want
	var pa, pb hwpri.Priority
	if want >= 0 {
		pa, pb = PrioritiesFor(want)
	} else {
		pb, pa = PrioritiesFor(-want)
	}
	return []Action{{Rank: l.pairs[i][0], Prio: pa}, {Rank: l.pairs[i][1], Prio: pb}}
}

// GapDir maps a relative gap to a ladder direction: +1 above threshold,
// -1 below -threshold, 0 inside the deadband.
func GapDir(gap, threshold float64) int {
	switch {
	case gap > threshold:
		return 1
	case gap < -threshold:
		return -1
	}
	return 0
}
