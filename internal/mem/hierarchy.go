package mem

import "fmt"

// HierConfig describes the full memory hierarchy of a chip.  The defaults
// (DefaultHierConfig) follow the POWER5: 32 KB 4-way L1D per core, a
// 1.875 MB 10-way unified L2 shared between the two cores, a large
// off-chip L3 and ~230-cycle memory.
type HierConfig struct {
	Cores      int
	L1         Config
	L2         Config
	L3         Config
	MemLatency int
}

// DefaultHierConfig returns the POWER5-like hierarchy for the given number
// of cores.  The L2 is rounded from the real 1.875 MB 10-way geometry to
// 2 MB 8-way so set counts stay powers of two.
func DefaultHierConfig(cores int) HierConfig {
	return HierConfig{
		Cores:      cores,
		L1:         Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 4, Latency: 2},
		L2:         Config{SizeBytes: 2 << 20, LineBytes: 128, Ways: 8, Latency: 14},
		L3:         Config{SizeBytes: 32 << 20, LineBytes: 256, Ways: 8, Latency: 90},
		MemLatency: 230,
	}
}

// Hierarchy is the chip-level memory system: private L1s, shared L2/L3.
type Hierarchy struct {
	l1  []*Cache
	l2  *Cache
	l3  *Cache
	cfg HierConfig
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("mem: need at least one core, got %d", cfg.Cores)
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		c, err := New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("mem: L1: %w", err)
		}
		h.l1 = append(h.l1, c)
	}
	var err error
	if h.l2, err = New(cfg.L2); err != nil {
		return nil, fmt.Errorf("mem: L2: %w", err)
	}
	if h.l3, err = New(cfg.L3); err != nil {
		return nil, fmt.Errorf("mem: L3: %w", err)
	}
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// LoadLatency walks addr down the hierarchy from core's L1 and returns the
// total access latency in cycles.  Misses allocate at every level walked
// (inclusive fill), so the model captures capacity contention between the
// two cores in the shared L2/L3.
func (h *Hierarchy) LoadLatency(core int, addr uint64) int {
	l1 := h.l1[core]
	if l1.Access(addr) {
		return l1.Latency()
	}
	if h.l2.Access(addr) {
		return l1.Latency() + h.l2.Latency()
	}
	if h.l3.Access(addr) {
		return l1.Latency() + h.l2.Latency() + h.l3.Latency()
	}
	return l1.Latency() + h.l2.Latency() + h.l3.Latency() + h.cfg.MemLatency
}

// StoreLatency models a store through the store queue: the line is
// allocated for footprint effects but the pipeline only pays the L1
// latency, as retirement does not wait for the fill.
func (h *Hierarchy) StoreLatency(core int, addr uint64) int {
	h.LoadLatency(core, addr) // touch for allocation/footprint effects
	return h.l1[core].Latency()
}

// FindL1 returns the way of core's L1 that holds addr, or -1 when a load
// of addr would miss, without changing any state.  The caller commits a
// hit with TouchL1 and a miss with LoadLatency.
func (h *Hierarchy) FindL1(core int, addr uint64) int { return h.l1[core].Find(addr) }

// TouchL1 commits a load hit on the L1 way FindL1 returned and returns
// its latency.
func (h *Hierarchy) TouchL1(core, way int) int {
	l1 := h.l1[core]
	l1.Touch(way)
	return l1.Latency()
}

// L1 returns core's private L1 cache (for statistics).
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// L2 returns the shared L2 cache (for statistics).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 returns the shared L3 cache (for statistics).
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Flush invalidates every level and clears its statistics, in time
// proportional to the live cache sets.
func (h *Hierarchy) Flush() {
	for _, c := range h.l1 {
		c.Flush()
	}
	h.l2.Flush()
	h.l3.Flush()
}
