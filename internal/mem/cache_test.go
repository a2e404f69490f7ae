package mem

import (
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 1024, LineBytes: 0, Ways: 2},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1024, LineBytes: 60, Ways: 2},       // line not power of two
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},       // size not multiple
		{SizeBytes: 1024 + 512, LineBytes: 64, Ways: 2}, // sets not power of two
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid geometry", cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on invalid geometry")
		}
	}()
	MustNew(Config{})
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache(t)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1038) { // same 64-byte line
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Error("next-line cold access hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses 2 misses", st)
	}
	if got := st.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %g, want 0.5", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t) // 8 sets, 2 ways
	// Three lines mapping to the same set: set stride = 8 sets * 64 B.
	const stride = 8 * 64
	a, b, x := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(x) // evicts b
	if !c.Contains(a) {
		t.Error("MRU line a was evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line b survived eviction")
	}
	if !c.Contains(x) {
		t.Error("newly inserted line x missing")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache(t)
	c.Access(0)
	c.Flush()
	if c.Contains(0) {
		t.Error("flush left line valid")
	}
	if st := c.Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Errorf("flush left stats %+v", st)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := smallCache(t)
	c.Access(0)
	before := c.Stats()
	c.Contains(0)
	c.Contains(1 << 20)
	if c.Stats() != before {
		t.Error("Contains changed statistics")
	}
}

func TestLines(t *testing.T) {
	c := smallCache(t)
	if got := c.Lines(); got != 16 {
		t.Errorf("Lines = %d, want 16", got)
	}
}

// Property: a working set no larger than the cache, accessed twice in the
// same order, hits on every access of the second pass (true LRU never
// evicts the working set when it fits).
func TestPropFittingWorkingSetHits(t *testing.T) {
	f := func(seed uint16) bool {
		c := MustNew(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4, Latency: 1})
		// Sequential lines fill sets uniformly: use exactly capacity.
		n := c.Lines()
		base := uint64(seed) << 12
		for i := 0; i < n; i++ {
			c.Access(base + uint64(i)*64)
		}
		for i := 0; i < n; i++ {
			if !c.Access(base + uint64(i)*64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: miss count never exceeds access count, and Contains agrees
// with a repeated Access hit.
func TestPropStatsConsistent(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Config{SizeBytes: 512, LineBytes: 64, Ways: 2, Latency: 1})
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Contains(uint64(a)) {
				return false
			}
			if !c.Access(uint64(a)) {
				return false
			}
		}
		st := c.Stats()
		return st.Misses <= st.Accesses && st.Accesses == uint64(2*len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := HierConfig{
		Cores:      2,
		L1:         Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, Latency: 2},
		L2:         Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, Latency: 14},
		L3:         Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, Latency: 90},
		MemLatency: 230,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.LoadLatency(0, 0); got != 2+14+90+230 {
		t.Errorf("cold load latency = %d, want %d", got, 2+14+90+230)
	}
	if got := h.LoadLatency(0, 0); got != 2 {
		t.Errorf("L1 hit latency = %d, want 2", got)
	}
	// Core 1 misses its own L1 but hits the shared L2.
	if got := h.LoadLatency(1, 0); got != 2+14 {
		t.Errorf("cross-core L2 hit latency = %d, want 16", got)
	}
	way := h.FindL1(0, 0)
	if way < 0 {
		t.Fatal("address should be resident in core 0 L1")
	}
	if h.FindL1(1, 1<<20) >= 0 {
		t.Error("untouched address should be an L1 miss")
	}
	before := h.L1(0).Stats()
	if got := h.TouchL1(0, way); got != 2 {
		t.Errorf("TouchL1 latency = %d, want 2", got)
	}
	if got := h.L1(0).Stats(); got.Accesses != before.Accesses+1 || got.Misses != before.Misses {
		t.Errorf("TouchL1 stats %+v after %+v, want one more hit", got, before)
	}
}

// TestFindTouchMatchesAccess: committing a hit through Find and Touch
// leaves the cache exactly as Access would — same statistics and the
// same LRU order, hence the same later evictions.
func TestFindTouchMatchesAccess(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 4, Latency: 2}
	a, b := MustNew(cfg), MustNew(cfg)
	addrs := make([]uint64, 4000)
	x := uint64(1)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		addrs[i] = (x >> 33) % (4 << 10)
	}
	for _, addr := range addrs {
		hit := a.Access(addr)
		if way := b.Find(addr); way >= 0 {
			if !hit {
				t.Fatalf("Find hit %#x where Access missed", addr)
			}
			b.Touch(way)
		} else if b.Access(addr) {
			t.Fatalf("Find missed %#x where Access hit", addr)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats %+v via Find/Touch, want %+v", b.Stats(), a.Stats())
	}
	for addr := uint64(0); addr < 4<<10; addr += 64 {
		if a.Contains(addr) != b.Contains(addr) {
			t.Fatalf("residency of %#x differs", addr)
		}
	}
}

func TestHierarchyStoreLatency(t *testing.T) {
	h, err := NewHierarchy(DefaultHierConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.StoreLatency(0, 4096); got != h.L1(0).Latency() {
		t.Errorf("store latency = %d, want L1 latency %d", got, h.L1(0).Latency())
	}
	// The store must have allocated the line for later loads.
	if got := h.LoadLatency(0, 4096); got != h.L1(0).Latency() {
		t.Errorf("load after store latency = %d, want L1 hit", got)
	}
}

func TestHierarchySharedL2Contention(t *testing.T) {
	cfg := HierConfig{
		Cores:      2,
		L1:         Config{SizeBytes: 512, LineBytes: 64, Ways: 2, Latency: 2},
		L2:         Config{SizeBytes: 2 << 10, LineBytes: 64, Ways: 2, Latency: 14},
		L3:         Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8, Latency: 90},
		MemLatency: 230,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 fills the whole L2; core 1 then streams a distinct footprint
	// of the same size, evicting core 0's lines.
	lines := h.L2().Lines()
	for i := 0; i < lines; i++ {
		h.LoadLatency(0, uint64(i)*64)
	}
	for i := 0; i < lines; i++ {
		h.LoadLatency(1, 1<<24+uint64(i)*64)
	}
	evicted := 0
	for i := 0; i < lines; i++ {
		if !h.L2().Contains(uint64(i) * 64) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Error("shared L2 shows no inter-core capacity contention")
	}
}

func TestHierarchyFlushAndErrors(t *testing.T) {
	if _, err := NewHierarchy(HierConfig{Cores: 0}); err == nil {
		t.Error("NewHierarchy accepted zero cores")
	}
	bad := DefaultHierConfig(1)
	bad.L2.LineBytes = 60
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("NewHierarchy accepted invalid L2")
	}
	h, err := NewHierarchy(DefaultHierConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	h.LoadLatency(0, 128)
	h.Flush()
	if h.FindL1(0, 128) >= 0 {
		t.Error("flush did not clear L1")
	}
	if h.Config().Cores != 2 {
		t.Error("Config not preserved")
	}
}
