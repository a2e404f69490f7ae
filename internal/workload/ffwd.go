package workload

import "encoding/binary"

// This file implements isa.FastForwarder for Gen — the state capture the
// phase-skip engine (internal/mpisim) uses to prove that a window of
// execution will repeat exactly.  See the contract on isa.FastForwarder.
//
// Normalization rules, per field:
//
//   - pos: for a finite load the raw position is captured — exhaustion
//     (pos >= N) is an absolute event, so two mid-phase generators only
//     behave identically if their raw progress matches.  For an
//     effectively infinite load (Spin, N <= 0, or N beyond any reachable
//     horizon) only pos mod genPeriod matters: the pattern index is
//     pos mod len(pattern) and the loop-closing branch tests
//     pos mod 4096, and len(pattern) (16 for every kind) divides 4096.
//   - cursor: future sequential addresses are (cursor + 8i) mod
//     footprint, so cursor mod footprint fully determines them; the raw
//     cursor is captured for finite loads for free via determinism, and
//     reduced for infinite ones.
//   - lcg: captured only for kinds whose pattern consumes it
//     (UsesLCG) — for the other kinds the value is pure dead weight that
//     varies with the seed, and the MPI runtime derives per-phase seeds,
//     so including it would spuriously block every match.
//   - Kind, Base, footprint, and (finite) N are captured because they
//     shape every future instruction; Seed is not — it only acts through
//     lcg, which is already covered.
//
// The lcg value needs no counter treatment: it is part of the norm, and
// an LCG step is a fixed affine map, so norm-equal states reproduce the
// same lcg trajectory without extrapolation.
const (
	// genPeriod is the behavioral period of pos for infinite loads: the
	// lcm of the pattern length (16) and the loop-exit modulus (4096).
	genPeriod = 4096
	// ffInfinite is the instruction horizon beyond which a load is
	// treated as infinite for fast-forward purposes: the simulator
	// cannot retire 2^40 instructions within the MaxCycles budget, so
	// such loads never exhaust and their raw position is irrelevant.
	ffInfinite = int64(1) << 40
)

// usesLCG marks the kinds whose pattern consumes the pseudo-random
// state (random addresses or data-dependent branch outcomes), derived
// from the pattern tables so it can never drift out of sync with them.
var usesLCG = func() [numKinds]bool {
	var u [numKinds]bool
	for k := range patterns {
		for _, st := range patterns[k] {
			if st.mode == addrRand || st.brRandom {
				u[k] = true
			}
		}
	}
	return u
}()

// UsesLCG reports whether the kind's kernel consumes its pseudo-random
// state.  The phase-skip engine refuses to extrapolate across compute
// phases of such kinds when their seeds are derived per phase, because
// each phase then starts from a different random state.
func UsesLCG(k Kind) bool { return u8ok(k) && usesLCG[k] }

func u8ok(k Kind) bool { return k < numKinds }

// ffFinite reports whether the load can exhaust within any reachable
// simulation horizon.
func (g *Gen) ffFinite() bool {
	return g.load.Kind != Spin && g.load.N > 0 && g.load.N < ffInfinite
}

// FFSupported implements isa.FastForwarder.
func (g *Gen) FFSupported() bool { return true }

// FFNorm implements isa.FastForwarder.
func (g *Gen) FFNorm(b []byte) []byte {
	b = append(b, 0xF1, byte(g.load.Kind))
	b = binary.LittleEndian.AppendUint64(b, g.load.Base)
	b = binary.LittleEndian.AppendUint64(b, g.footprint)
	if UsesLCG(g.load.Kind) {
		b = binary.LittleEndian.AppendUint64(b, g.lcg)
	}
	if g.ffFinite() {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, uint64(g.load.N))
		b = binary.LittleEndian.AppendUint64(b, uint64(g.pos))
		b = binary.LittleEndian.AppendUint64(b, g.cursor)
	} else {
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, uint64(g.pos%genPeriod))
		b = binary.LittleEndian.AppendUint64(b, g.cursor%g.footprint)
	}
	return b
}

// FFCtrs implements isa.FastForwarder.
func (g *Gen) FFCtrs(c []int64) []int64 {
	return append(c, g.pos, int64(g.cursor))
}

// FFAdvance implements isa.FastForwarder.
func (g *Gen) FFAdvance(k, dt int64, d []int64) []int64 {
	g.pos += k * d[0]
	g.cursor += uint64(k * d[1])
	g.sync()
	return d[2:]
}
