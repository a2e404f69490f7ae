package main

import (
	"fmt"
	"math/rand/v2"

	smtbalance "repro"
	"repro/internal/mpisim"
	"repro/internal/serve"
	"repro/internal/workload"
)

// phaseSpec is one step of a generated rank program, kept in a neutral
// form so the same input can be handed to the public API, the HTTP wire
// format and the layer probes.
type phaseSpec struct {
	Kind    string // compute kernel; empty for barriers and exchanges
	N       int64  // compute instruction count
	Barrier bool
	Bytes   int64 // exchange volume per peer
	Peers   []int // exchange peers; non-nil marks an exchange
}

// jobSpec is a generated MPI-style job.
type jobSpec struct {
	Name  string
	Ranks [][]phaseSpec
}

// public converts the job to the library's Job.
func (j jobSpec) public() smtbalance.Job {
	out := smtbalance.Job{Name: j.Name}
	for _, prog := range j.Ranks {
		var ps []smtbalance.Phase
		for _, ph := range prog {
			switch {
			case ph.Barrier:
				ps = append(ps, smtbalance.Barrier())
			case ph.Peers != nil:
				ps = append(ps, smtbalance.Exchange(ph.Bytes, ph.Peers...))
			default:
				ps = append(ps, smtbalance.Compute(ph.Kind, ph.N))
			}
		}
		out.Ranks = append(out.Ranks, ps)
	}
	return out
}

// wire converts the job to the serve API's request form.
func (j jobSpec) wire() serve.Job {
	out := serve.Job{Name: j.Name}
	for _, prog := range j.Ranks {
		var ps []serve.Phase
		for _, ph := range prog {
			switch {
			case ph.Barrier:
				ps = append(ps, serve.Phase{Barrier: true})
			case ph.Peers != nil:
				ps = append(ps, serve.Phase{Exchange: &serve.Exchange{Bytes: ph.Bytes, Peers: ph.Peers}})
			default:
				ps = append(ps, serve.Phase{Compute: &serve.Compute{Kind: ph.Kind, N: ph.N}})
			}
		}
		out.Ranks = append(out.Ranks, ps)
	}
	return out
}

// inner converts the job to the simulator's form, for the layer probes
// that call the sweep screener directly.
func (j jobSpec) inner() *mpisim.Job {
	out := &mpisim.Job{Name: j.Name}
	for _, prog := range j.Ranks {
		var p mpisim.Program
		for _, ph := range prog {
			switch {
			case ph.Barrier:
				p = append(p, mpisim.Barrier())
			case ph.Peers != nil:
				p = append(p, mpisim.Exchange(ph.Bytes, ph.Peers...))
			default:
				p = append(p, mpisim.Compute(workload.Load{Kind: kindOf(ph.Kind), N: ph.N}))
			}
		}
		out.Ranks = append(out.Ranks, p)
	}
	return out
}

// rankLoads lists each rank's compute kernels with the address base and
// LCG seed the MPI runtime gives them (rank-disjoint bases, one seed per
// program counter), so the layer probes replay the streams a real run
// executes.
func (j jobSpec) rankLoads() [][]workload.Load {
	out := make([][]workload.Load, len(j.Ranks))
	for r, prog := range j.Ranks {
		for pc, ph := range prog {
			if ph.Barrier || ph.Peers != nil {
				continue
			}
			out[r] = append(out[r], workload.Load{Kind: kindOf(ph.Kind), N: ph.N, Base: uint64(r+1) << 36, Seed: uint64(r)*977 + uint64(pc) + 1})
		}
	}
	return out
}

// loads is every compute kernel of the job, rank by rank.
func (j jobSpec) loads() []workload.Load {
	var out []workload.Load
	for _, ls := range j.rankLoads() {
		out = append(out, ls...)
	}
	return out
}

// firstLoads is each rank's first compute kernel without an instruction
// limit, for probes that run the machine for a fixed number of cycles.
func (j jobSpec) firstLoads() []workload.Load {
	out := make([]workload.Load, len(j.Ranks))
	for r, ls := range j.rankLoads() {
		out[r] = ls[0]
		out[r].N = 0
	}
	return out
}

// kindOf maps a generated kernel name to its kind; the generators only
// emit valid names, so a failure is a bug in this package.
func kindOf(name string) workload.Kind {
	k, err := workload.ParseKind(name)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated an unknown kernel %q", name))
	}
	return k
}

// newRNG returns the generator every input of a run derives from.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// jitter scales n by a seeded factor within ±3%, so every seed runs
// different instruction counts of the same shape.
func jitter(rng *rand.Rand, n float64) int64 {
	v := int64(n * (1 + 0.06*(rng.Float64()-0.5)))
	if v < 1 {
		v = 1
	}
	return v
}

// pairSymmetry returns a seeded rank relabeling of a 4-rank job that
// keeps the pin-in-order core pairs together (swap within a core, swap
// the two cores), so the relabeled job's cycle count stays close to the
// original's and latencies stay unimodal across seeds.
func pairSymmetry(rng *rand.Rand) [4]int {
	p := [4]int{0, 1, 2, 3}
	if rng.IntN(2) == 1 {
		p[0], p[1] = p[1], p[0]
	}
	if rng.IntN(2) == 1 {
		p[2], p[3] = p[3], p[2]
	}
	if rng.IntN(2) == 1 {
		p[0], p[1], p[2], p[3] = p[2], p[3], p[0], p[1]
	}
	return p
}

// ring returns rank r's two ring neighbours in a 4-rank job.
func ring(r int) []int { return []int{(r + 3) % 4, (r + 1) % 4} }

// metbenchJob is a seeded variant of the Table IV MetBench shape: one
// heavy and one light FPU worker per core, a barrier per iteration.
func metbenchJob(rng *rand.Rand, scale float64) jobSpec {
	sym := pairSymmetry(rng)
	weights := [4]float64{40_000, 180_000, 40_000, 180_000}
	job := jobSpec{Name: "metbench"}
	for r := 0; r < 4; r++ {
		var prog []phaseSpec
		for i := 0; i < 3; i++ {
			prog = append(prog, phaseSpec{Kind: "fpu", N: jitter(rng, scale*weights[sym[r]])}, phaseSpec{Barrier: true})
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

// btmzJob is a seeded variant of the Table V BT-MZ shape: uneven zone
// loads, a neighbour exchange around the ring each iteration and a
// closing barrier.
func btmzJob(rng *rand.Rand, scale float64) jobSpec {
	sym := pairSymmetry(rng)
	weights := [4]float64{0.18, 0.24, 0.67, 1.00}
	job := jobSpec{Name: "bt-mz"}
	for r := 0; r < 4; r++ {
		var prog []phaseSpec
		for i := 0; i < 2; i++ {
			prog = append(prog,
				phaseSpec{Kind: "fpu", N: jitter(rng, scale*220_000*weights[sym[r]])},
				phaseSpec{Bytes: 16 << 10, Peers: ring(r)})
		}
		prog = append(prog, phaseSpec{Barrier: true})
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

// siestaJob is a seeded variant of the Table VI SIESTA shape: a
// branchy, low-ILP solver whose phases also stream a memory kernel with
// a working set beyond the modelled L3, a moving bottleneck rank, and an
// exchange plus barrier per iteration.
func siestaJob(rng *rand.Rand, scale float64) jobSpec {
	sym := pairSymmetry(rng)
	weights := [4]float64{0.80, 0.74, 0.82, 0.97}
	job := jobSpec{Name: "siesta"}
	for r := 0; r < 4; r++ {
		var prog []phaseSpec
		for i := 0; i < 3; i++ {
			w := weights[sym[r]]
			if sym[r] == []int{3, 0, 3}[i] {
				w *= 1.55 // the iteration's bottleneck rank
			}
			prog = append(prog,
				phaseSpec{Kind: "branchy", N: jitter(rng, scale*82_000*w)},
				phaseSpec{Kind: "mem", N: jitter(rng, scale*1_700*w)},
				phaseSpec{Bytes: 8 << 10, Peers: ring(r)},
				phaseSpec{Barrier: true})
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}

// paperShapes are the three paper applications paper-run and serve-mix
// draw from, in round-robin order.
var paperShapes = []func(*rand.Rand, float64) jobSpec{metbenchJob, btmzJob, siestaJob}

// ringJob is search's input: a seeded 4-rank iterative FPU job with a
// ring exchange and a barrier every iteration.  Enough iterations of a
// steady pattern let phase-skip engage when OS ticks are off.  The seed
// scales the whole job by one factor within ±3%: relabeling ranks, or
// jittering each rank on its own, changes how soon phase-skip finds the
// job's limit cycle and so a sweep's cost by ±20% from job to job.
func ringJob(rng *rand.Rand) jobSpec {
	weights := [4]float64{0.18, 0.24, 0.67, 1.00}
	unit := float64(jitter(rng, 4_000))
	job := jobSpec{Name: "ring"}
	for r := 0; r < 4; r++ {
		n := int64(unit * weights[r])
		var prog []phaseSpec
		for i := 0; i < 12; i++ {
			prog = append(prog,
				phaseSpec{Kind: "fpu", N: n},
				phaseSpec{Bytes: 4 << 10, Peers: ring(r)},
				phaseSpec{Barrier: true})
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job
}
