package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fullWalkFFNorm is the reference norm: it visits every set of the
// geometry and skips the empty ones.  Cache.FFNorm must produce the same
// bytes from its live sets alone.
func fullWalkFFNorm(c *Cache, b []byte) []byte {
	ways := c.cfg.Ways
	for set := 0; set < c.sets; set++ {
		base := set * ways
		var order []int
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
		if len(order) == 0 {
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(set))
		b = append(b, byte(ways-len(order)))
		for _, i := range order {
			b = binary.LittleEndian.AppendUint64(b, c.tags[i])
		}
	}
	return binary.LittleEndian.AppendUint32(b, ^uint32(0))
}

// TestLiveSetFFNormMatchesFullWalk drives each POWER5 cache geometry
// with seeded random access sequences over footprints from a few lines
// to several times the capacity, and checks the live-set norm against
// the full-geometry walk after the accesses, after Flush, and after
// refilling the flushed cache.
func TestLiveSetFFNormMatchesFullWalk(t *testing.T) {
	hc := DefaultHierConfig(1)
	for _, g := range []struct {
		name string
		cfg  Config
	}{{"L1", hc.L1}, {"L2", hc.L2}, {"L3", hc.L3}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", g.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := MustNew(g.cfg)
				check := func(stage string) {
					t.Helper()
					if got, want := c.FFNorm(nil), fullWalkFFNorm(c, nil); !bytes.Equal(got, want) {
						t.Fatalf("%s: live-set norm (%d bytes) differs from full walk (%d bytes)", stage, len(got), len(want))
					}
				}
				check("empty")
				fill := func() {
					footprint := uint64(g.cfg.LineBytes) << uint(rng.Intn(20))
					if lim := 4 * uint64(g.cfg.SizeBytes); footprint > lim {
						footprint = lim
					}
					for i := 0; i < 4*c.Lines(); i++ {
						c.Access(rng.Uint64() % footprint)
					}
				}
				fill()
				check("filled")
				c.Flush()
				check("flushed")
				if st := c.Stats(); st != (Stats{}) {
					t.Fatalf("flushed stats = %+v", st)
				}
				fill()
				check("refilled")
			})
		}
	}
}

// probe is everything observable about a hierarchy without perturbing
// it: the phase-skip norm and counters, the per-level statistics and
// residency of a set of addresses.
type probe struct {
	norm     []byte
	ctrs     []int64
	stats    []Stats
	contains []bool
}

func probeHierarchy(h *Hierarchy, addrs []uint64) probe {
	p := probe{norm: h.FFNorm(nil), ctrs: h.FFCtrs(nil)}
	caches := []*Cache{h.L2(), h.L3()}
	for c := 0; c < h.Config().Cores; c++ {
		caches = append(caches, h.L1(c))
	}
	for _, c := range caches {
		p.stats = append(p.stats, c.Stats())
		for _, a := range addrs {
			p.contains = append(p.contains, c.Contains(a))
		}
	}
	return p
}

// TestHierarchyFlushMatchesFresh dirties a hierarchy with a footprint
// larger than the L3 and flushes it: it must be indistinguishable from a
// newly built one, before and after the same access sequence — stale
// tags left in the flushed arrays never show.  Recycled chips rely on
// this (power5.Machine.Release flushes each chip's hierarchy).
func TestHierarchyFlushMatchesFresh(t *testing.T) {
	cfg := DefaultHierConfig(2)
	rng := rand.New(rand.NewSource(7))
	span := 2 * uint64(cfg.L3.SizeBytes)
	var addrs []uint64
	for i := 0; i < 256; i++ {
		addrs = append(addrs, rng.Uint64()%span)
	}

	got, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < span; a += uint64(cfg.L3.LineBytes) {
		got.LoadLatency(int(a/256)%cfg.Cores, a)
	}
	got.Flush()
	fresh, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := probeHierarchy(got, addrs), probeHierarchy(fresh, addrs); !reflect.DeepEqual(a, b) {
		t.Fatal("flushed hierarchy differs from a fresh one")
	}
	for i, a := range addrs {
		core := i % cfg.Cores
		if lg, lf := got.LoadLatency(core, a), fresh.LoadLatency(core, a); lg != lf {
			t.Fatalf("access %d (%#x): latency %d on the flushed hierarchy, %d on a fresh one", i, a, lg, lf)
		}
	}
	if a, b := probeHierarchy(got, addrs), probeHierarchy(fresh, addrs); !reflect.DeepEqual(a, b) {
		t.Fatal("flushed hierarchy diverges from a fresh one under the same accesses")
	}
}
