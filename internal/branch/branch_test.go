package branch

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, bits := range []int{3, 25, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bits)
				}
			}()
			New(bits)
		}()
	}
}

// A branch that is always taken must be learned after a few iterations.
func TestLearnsLoopBranch(t *testing.T) {
	p := New(10)
	const pc = 0x40
	wrong := 0
	for i := 0; i < 1000; i++ {
		if !p.Predict(0, pc, true) {
			wrong++
		}
	}
	if wrong > 10 {
		t.Errorf("always-taken branch mispredicted %d/1000 times", wrong)
	}
	st := p.Stats(0)
	if st.Predictions != 1000 || st.Mispredicts != uint64(wrong) {
		t.Errorf("stats %+v inconsistent with observed %d wrong", st, wrong)
	}
}

// An alternating pattern is captured by global history.
func TestLearnsAlternatingPattern(t *testing.T) {
	p := New(12)
	const pc = 0x80
	wrong := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if !p.Predict(0, pc, taken) {
			wrong++
		}
	}
	if rate := float64(wrong) / 2000; rate > 0.1 {
		t.Errorf("alternating branch mispredict rate %.2f, want < 0.10", rate)
	}
}

// Random outcomes must hover near 50% mispredicts — the predictor must not
// pretend to predict noise.
func TestRandomBranchesUnpredictable(t *testing.T) {
	p := New(12)
	rng := rand.New(rand.NewSource(1))
	wrong := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if !p.Predict(0, uint32(i%64)*4, rng.Intn(2) == 0) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("random branch mispredict rate %.2f, want ~0.5", rate)
	}
}

// Two contexts sharing the table must at least keep separate statistics
// and histories.
func TestPerContextStats(t *testing.T) {
	p := New(10)
	for i := 0; i < 100; i++ {
		p.Predict(0, 0x10, true)
	}
	p.Predict(1, 0x20, true)
	if p.Stats(0).Predictions != 100 || p.Stats(1).Predictions != 1 {
		t.Errorf("per-context stats mixed: %+v %+v", p.Stats(0), p.Stats(1))
	}
}

// A destructive co-runner raises the sibling's mispredict rate (shared
// tables), which is the effect the paper attributes to shared resources.
func TestSharedTableInterference(t *testing.T) {
	solo := New(4)
	wrongSolo := 0
	for i := 0; i < 5000; i++ {
		if !solo.Predict(0, uint32(i%16)*4, true) {
			wrongSolo++
		}
	}

	shared := New(4)
	rng := rand.New(rand.NewSource(7))
	wrongShared := 0
	for i := 0; i < 5000; i++ {
		if !shared.Predict(0, uint32(i%16)*4, true) {
			wrongShared++
		}
		// Context 1 hammers not-taken branches, polluting the table.
		for j := 0; j < 4; j++ {
			shared.Predict(1, uint32(rng.Intn(1<<8)), false)
		}
	}
	if wrongShared <= wrongSolo {
		t.Errorf("no interference: solo %d wrong, shared %d wrong", wrongSolo, wrongShared)
	}
}

func TestReset(t *testing.T) {
	p := New(8)
	p.Predict(0, 0, true)
	p.Predict(1, 4, false)
	p.Reset()
	if p.Stats(0).Predictions != 0 || p.Stats(1).Predictions != 0 {
		t.Error("Reset left statistics")
	}
}

func TestMispredictRateZeroDivision(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Error("empty stats must report rate 0")
	}
}

// TestFFNormProperty drives predictors of 2^4 … 2^14 counters with short
// random Predict sequences — random contexts, a few branch addresses,
// and outcomes drawn as Branchy draws them (fair coin, 13/16 biased,
// always taken) — so that distinct sequences often reach equal states.
// Across every pair, two norms must be equal exactly when the tables and
// histories are, and each norm must hold one record per touched table
// word: its size follows what a job touched, not the table size.
func TestFFNormProperty(t *testing.T) {
	var equalPairs, unequalPairs int
	for bits := 4; bits <= 14; bits++ {
		rng := rand.New(rand.NewSource(int64(bits)))
		preds := make([]*Predictor, 48)
		for i := range preds {
			p := New(bits)
			for n := rng.Intn(7); n > 0; n-- {
				var taken bool
				switch rng.Intn(3) {
				case 0:
					taken = rng.Intn(2) == 0
				case 1:
					taken = rng.Intn(16) < 13
				default:
					taken = true
				}
				p.Predict(rng.Intn(2), uint32(rng.Intn(4))<<uint(rng.Intn(bits)), taken)
			}
			if i%8 == 7 {
				p.Reset()
				if !bytes.Equal(p.FFNorm(nil), New(bits).FFNorm(nil)) {
					t.Fatalf("bits=%d: a reset predictor's norm differs from a new one's", bits)
				}
			}
			preds[i] = p
		}
		norms := make([][]byte, len(preds))
		for i, p := range preds {
			norms[i] = p.FFNorm(nil)
			touched := 0
			for w := 0; w < len(p.table); w += 8 {
				for _, c := range p.table[w : w+8] {
					if c != 2 {
						touched++
						break
					}
				}
			}
			if want := 12*touched + 4 + 8; len(norms[i]) != want {
				t.Fatalf("bits=%d: %d touched words gave a %d-byte norm, want %d", bits, touched, len(norms[i]), want)
			}
		}
		for i := range preds {
			for j := i + 1; j < len(preds); j++ {
				state := bytes.Equal(preds[i].table, preds[j].table) && preds[i].hist == preds[j].hist
				if norm := bytes.Equal(norms[i], norms[j]); norm != state {
					t.Fatalf("bits=%d, predictors %d and %d: equal norms %v, equal state %v", bits, i, j, norm, state)
				}
				if state {
					equalPairs++
				} else {
					unequalPairs++
				}
			}
		}
	}
	// Both sides of the equivalence must have been exercised.
	if equalPairs < 100 || unequalPairs < 100 {
		t.Fatalf("%d equal and %d unequal pairs; the sequences no longer cover both cases", equalPairs, unequalPairs)
	}
}
