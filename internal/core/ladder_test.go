package core

import "testing"

// TestLadderStep drives one pair through the ladder's state machine.
// Each step feeds a direction under a budget and expects the pair's
// difference afterwards and whether the step wrote priorities (move).
func TestLadderStep(t *testing.T) {
	type step struct {
		dir, budget, diff int
		move              bool
	}
	for _, tc := range []struct {
		name       string
		hysteresis int
		steps      []step
	}{
		{"moves after hysteresis", 2, []step{
			{1, 3, 0, false}, {1, 3, 1, true}, {1, 3, 1, false}, {1, 3, 2, true},
		}},
		{"zero resets the streak", 2, []step{
			{1, 3, 0, false}, {0, 3, 0, false}, {1, 3, 0, false}, {1, 3, 1, true},
		}},
		{"direction flip restarts the streak", 2, []step{
			{1, 3, 0, false}, {-1, 3, 0, false}, {1, 3, 0, false}, {-1, 3, 0, false}, {-1, 3, -1, true},
		}},
		{"clamped at budget writes nothing", 1, []step{
			{-1, 1, -1, true}, {-1, 1, -1, false}, {-1, 1, -1, false}, {1, 1, 0, true},
		}},
		{"walk-back after the budget shrinks", 2, []step{
			{1, 3, 0, false}, {1, 3, 1, true}, {1, 3, 1, false}, {1, 3, 2, true},
			{1, 3, 2, false}, {1, 3, 3, true},
			{-1, 1, 3, false}, {-1, 1, 1, true}, {-1, 1, 1, false}, {-1, 1, 0, true},
		}},
		{"a shrunk budget caps an upward step", 1, []step{
			{1, 3, 1, true}, {1, 3, 2, true}, {1, 1, 1, true}, {1, 1, 1, false},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLadder([]int{1, 0}, tc.hysteresis) // ranks 1,0 on core 0
			pair := l.Pairs()[0]
			if pair != [2]int{0, 1} {
				t.Fatalf("pair = %v, want [0 1]", pair)
			}
			for n, s := range tc.steps {
				acts := l.Step(0, s.dir, s.budget)
				if got := l.Diff(0); got != s.diff {
					t.Fatalf("step %d (dir %d, budget %d): diff = %d, want %d", n, s.dir, s.budget, got, s.diff)
				}
				if !s.move {
					if acts != nil {
						t.Fatalf("step %d: wrote %v, want no move", n, acts)
					}
					continue
				}
				fav, pen := PrioritiesFor(abs(s.diff))
				want := []Action{{0, fav}, {1, pen}}
				if s.diff < 0 {
					want = []Action{{0, pen}, {1, fav}}
				}
				if len(acts) != 2 || acts[0] != want[0] || acts[1] != want[1] {
					t.Fatalf("step %d: wrote %v, want %v", n, acts, want)
				}
			}
		})
	}
}

func abs(d int) int {
	if d < 0 {
		return -d
	}
	return d
}
