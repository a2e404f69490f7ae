package smtbalance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"repro/internal/mpisim"
	"repro/internal/sweep"
)

// cacheKeyVersion names the canonical cache-key format.  It is hashed
// into every key (envJobKey's leading tag) and names the disk store's
// directory, so bumping it on a format change invalidates both tiers
// together.
const cacheKeyVersion = "v2"

// cacheKey identifies one deterministic simulator configuration: a
// canonical SHA-256 over (topology, simulation options, job, placement).
// The simulator is pure, so equal keys mean byte-identical outcomes.
type cacheKey [sha256.Size]byte

// hasher accumulates the canonical encoding.  Every field is written
// with an explicit tag and fixed-width integers so that distinct
// configurations can never collide by concatenation ambiguity.
type hasher struct {
	buf []byte
}

func (h *hasher) u64(v uint64) {
	h.buf = binary.BigEndian.AppendUint64(h.buf, v)
}

func (h *hasher) i64(v int64) { h.u64(uint64(v)) }

func (h *hasher) tag(b byte) { h.buf = append(h.buf, b) }

func (h *hasher) bool(v bool) {
	if v {
		h.tag(1)
	} else {
		h.tag(0)
	}
}

// str hashes a length-prefixed string, so concatenated fields can never
// collide by reassociation.
func (h *hasher) str(s string) {
	h.i64(int64(len(s)))
	h.buf = append(h.buf, s...)
}

// envJobKey hashes the run environment and the job — everything but the
// placement, which sweeps vary point by point.
//
// Audit: every behavior-affecting Options field must appear here —
// mechanically enforced by mtlint's cachekey pass (the //mtlint:cachekey
// directives on Options and the hashers; see docs/lint.md).
//   - Topology: hashed (three dimensions, normalized).
//   - VanillaKernel, NoOSNoise, ColdCaches: hashed.
//   - Policy / DynamicBalance / MaxPriorityDiff: all three resolve to
//     one policy value (resolvePolicy), hashed structurally — the name
//     and every parameter key/value length-prefixed, keys sorted — so
//     the deprecated knobs and their Policy spelling share entries,
//     while distinct policies or parameters can never collide, even for
//     custom policies whose Name/Params contain the rendered PolicyID
//     grammar's delimiters.
//   - MaxCycles: hashed.
//   - OnIteration: not hashed — its presence disables caching entirely
//     (Machine.Run), as does a policy that cannot be re-bound per run
//     (policyCacheable).
//   - LoadDrift: not hashed — like OnIteration its presence disables
//     caching entirely (an arbitrary function cannot be hashed, and the
//     loads it produces are not in the job).
//   - Exact: deliberately not hashed — it selects between two execution
//     strategies with byte-identical results (the phase-skip engine only
//     applies provably exact repetitions; ff_test.go and the root
//     differential tests enforce the identity), so both spellings must
//     share cache entries.
//
// Job.Name is deliberately excluded: it labels diagnostics and never
// reaches the simulated machine, so two jobs differing only in name
// share cache entries.
//
// SweepOptions (Workers, Top, Objective, Screen, Progress) is likewise
// outside the key on purpose: none of its fields change what any single
// run computes.  Screen in particular only *selects* which placement
// points are simulated — every run a screened sweep does execute goes
// through this same key, so screened and exhaustive sweeps share cache
// entries point for point (the screened-vs-exhaustive differential
// tests depend on exactly that).
//
//mtlint:cachekey-hasher run
func envJobKey(topo Topology, opts Options, pol Policy, job Job) [sha256.Size]byte {
	var h hasher
	h.str(cacheKeyVersion)
	topo = topo.normalized()
	h.i64(int64(topo.Chips))
	h.i64(int64(topo.CoresPerChip))
	h.i64(int64(topo.SMTWays))
	h.bool(opts.VanillaKernel)
	h.bool(opts.NoOSNoise)
	h.bool(opts.ColdCaches)
	if pol == nil {
		h.tag(0)
	} else {
		h.tag(1)
		h.str(pol.Name())
		params := pol.Params()
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h.i64(int64(len(keys)))
		for _, k := range keys {
			h.str(k)
			h.str(params[k])
		}
	}
	h.i64(opts.MaxCycles)
	h.i64(int64(len(job.Ranks)))
	for _, prog := range job.Ranks {
		h.tag('R')
		h.i64(int64(len(prog)))
		for _, ph := range prog {
			switch ph.inner.Kind {
			case mpisim.PhaseCompute:
				h.tag('C')
				h.u64(uint64(ph.inner.Load.Kind))
				h.i64(ph.inner.Load.N)
				h.i64(ph.inner.Load.Footprint)
				h.u64(ph.inner.Load.Base)
				h.u64(ph.inner.Load.Seed)
			case mpisim.PhaseBarrier:
				h.tag('B')
			case mpisim.PhaseExchange:
				h.tag('E')
				h.i64(ph.inner.Bytes)
				h.i64(int64(len(ph.inner.Peers)))
				for _, p := range ph.inner.Peers {
					h.i64(int64(p))
				}
			}
		}
	}
	return sha256.Sum256(h.buf)
}

// placementKey extends an environment+job hash with a concrete placement,
// yielding the full cache key of one run.
func placementKey(base [sha256.Size]byte, cpu []int, prio []int) cacheKey {
	var h hasher
	h.buf = append(h.buf, base[:]...)
	h.tag('P')
	h.i64(int64(len(cpu)))
	for _, c := range cpu {
		h.i64(int64(c))
	}
	for _, p := range prio {
		h.i64(int64(p))
	}
	return sha256.Sum256(h.buf)
}

// matrixCellKey hashes one evaluation-matrix cell — the topology, the
// scenario identity and the ordered policy identities — the
// scenario-aware key under which a Matrix engine memoizes whole cells.
// Scenario and policy IDs are canonical (equal ID ⇒ equal behavior), so
// hashing the rendered IDs length-prefixed is collision-free for the
// same reason envJobKey's structural policy hash is.
//
//mtlint:cachekey-hasher matrix
func matrixCellKey(topo Topology, scenarioID string, policyIDs []string) cacheKey {
	var h hasher
	h.tag('M')
	h.tag('1')
	topo = topo.normalized()
	h.i64(int64(topo.Chips))
	h.i64(int64(topo.CoresPerChip))
	h.i64(int64(topo.SMTWays))
	h.str(scenarioID)
	h.i64(int64(len(policyIDs)))
	for _, id := range policyIDs {
		h.str(id)
	}
	return sha256.Sum256(h.buf)
}

// CacheStats reports a Machine's result-cache effectiveness, summed
// over its full-result and sweep-point layers.  Every lookup is counted
// exactly once, by how it was finally answered: a hit from memory, or a
// miss that was coalesced, revived from disk, or simulated.  So the
// number of simulations actually executed is exactly Misses − Coalesced
// − DiskHits.
type CacheStats struct {
	// Hits counts lookups served from memory.
	Hits int64 `json:"hits"`
	// Misses counts lookups the in-memory tier could not answer.
	Misses int64 `json:"misses"`
	// Coalesced counts missed lookups that waited on an identical
	// in-flight computation (singleflight) instead of simulating a
	// duplicate.
	Coalesced int64 `json:"coalesced"`
	// DiskHits counts missed lookups answered by the persistent disk
	// tier (zero without Machine.UseDiskCache).
	DiskHits int64 `json:"disk_hits"`
	// DiskWrites counts records persisted to the disk tier.
	DiskWrites int64 `json:"disk_writes"`
	// Results is the entry count of the full-result cache layer
	// (complete runs, traces included).
	Results int `json:"results"`
	// Metrics is the entry count of the sweep-point metrics layer.
	Metrics int `json:"metrics"`
}

// Default cache bounds: full results carry traces (tens of KB each),
// metrics are three numbers, so the metrics layer affords far more
// entries — enough to hold the paper's whole OS-settable 4-rank space.
const (
	defaultRunCacheCap    = 512
	defaultMetricCacheCap = 1 << 16
)

// diskKey renders a cache key as the disk store's content address.  The
// record kind ("run" or "met") is part of the address: both layers hash
// the same configuration to the same bytes, but their records differ.
func diskKey(k cacheKey, kind string) string {
	return hex.EncodeToString(k[:]) + "-" + kind
}

// The disk record formats of the Machine's two cache layers.
var (
	runCodec = &memoCodec[cacheKey, *Result]{
		name:   func(k cacheKey) string { return diskKey(k, "run") },
		encode: encodeResult,
		decode: decodeResult,
	}
	metCodec = &memoCodec[cacheKey, sweep.Metrics]{
		name:   func(k cacheKey) string { return diskKey(k, "met") },
		encode: func(met sweep.Metrics) ([]byte, bool) { return encodeMetrics(met), true },
		decode: decodeMetrics,
	}
)

// clone returns an independent copy of the result: the per-rank slice is
// fresh so callers may mutate theirs, while the immutable finished trace
// is shared (its writers only read once Finish has run).
func (r *Result) clone() *Result {
	out := *r
	out.Ranks = append([]RankSummary(nil), r.Ranks...)
	return &out
}
