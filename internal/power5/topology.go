package power5

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Topology describes a machine built from POWER5 chips: Chips identical
// chips, each with CoresPerChip cores of SMTWays hardware contexts.  The
// paper's OpenPower 710 is the 1×2×2 default; larger nodes (the p5-575's
// 8-chip boards, multi-module drawers) are expressed by raising Chips and
// CoresPerChip.  SMTWays must be 2: the priority mechanism the paper (and
// this reproduction) builds on is defined for exactly two sibling
// contexts per core.
//
// Logical CPUs are numbered chip-major: CPU = (chip*CoresPerChip +
// core)*SMTWays + context, so CPUs 2k and 2k+1 always share a core and
// compete for its decode cycles, exactly as on the single-chip machine.
type Topology struct {
	// Chips is the number of chips (each with its own shared L2/L3).
	Chips int
	// CoresPerChip is the number of cores per chip.
	CoresPerChip int
	// SMTWays is the SMT width per core (must be 2).
	SMTWays int
}

// Topology size bounds: generous for sweeps and simulation, tight enough
// that a hostile flag value cannot allocate an absurd machine.
const (
	maxChips        = 64
	maxCoresPerChip = 64
)

// DefaultTopology returns the paper's machine: one chip, two cores,
// 2-way SMT — four hardware contexts.
func DefaultTopology() Topology { return Topology{Chips: 1, CoresPerChip: 2, SMTWays: 2} }

// IsZero reports whether t is the zero value (meaning "use the default").
func (t Topology) IsZero() bool { return t == Topology{} }

// Validate checks the topology's shape.
func (t Topology) Validate() error {
	if t.Chips < 1 || t.Chips > maxChips {
		return fmt.Errorf("power5: topology needs 1..%d chips, got %d", maxChips, t.Chips)
	}
	if t.CoresPerChip < 1 || t.CoresPerChip > maxCoresPerChip {
		return fmt.Errorf("power5: topology needs 1..%d cores per chip, got %d", maxCoresPerChip, t.CoresPerChip)
	}
	if t.SMTWays != 2 {
		return fmt.Errorf("power5: topology needs SMT width 2 (the priority mechanism is defined for 2-way SMT), got %d", t.SMTWays)
	}
	return nil
}

// Cores returns the total core count across all chips.
func (t Topology) Cores() int { return t.Chips * t.CoresPerChip }

// Contexts returns the total hardware context (logical CPU) count.
func (t Topology) Contexts() int { return t.Cores() * t.SMTWays }

// String renders the topology as "chips x cores x smt", e.g. "2x2x2".
// ParseTopology accepts the same form, so String round-trips.
func (t Topology) String() string {
	return fmt.Sprintf("%dx%dx%d", t.Chips, t.CoresPerChip, t.SMTWays)
}

// ParseTopology parses a "chips x cores x smt" string such as "2x2x2"
// (case-insensitive x, optional spaces).  The parsed topology is
// validated, so a successful parse always yields a usable topology.
func ParseTopology(s string) (Topology, error) {
	fields := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(fields) != 3 {
		return Topology{}, fmt.Errorf("power5: topology %q: want chips x cores x smt, e.g. 2x2x2", s)
	}
	var dims [3]int
	for i, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return Topology{}, fmt.Errorf("power5: topology %q: bad dimension %q", s, f)
		}
		dims[i] = v
	}
	t := Topology{Chips: dims[0], CoresPerChip: dims[1], SMTWays: dims[2]}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// CPUOf returns the logical CPU of a (chip, core, context) triple.
func (t Topology) CPUOf(chip, core, context int) (int, error) {
	if chip < 0 || chip >= t.Chips {
		return 0, fmt.Errorf("power5: chip %d outside topology %s", chip, t)
	}
	if core < 0 || core >= t.CoresPerChip {
		return 0, fmt.Errorf("power5: core %d outside topology %s", core, t)
	}
	if context < 0 || context >= t.SMTWays {
		return 0, fmt.Errorf("power5: context %d outside topology %s", context, t)
	}
	return (chip*t.CoresPerChip+core)*t.SMTWays + context, nil
}

// Locate returns the (chip, local core, context) triple of a logical CPU.
// The CPU must be in [0, Contexts()).
func (t Topology) Locate(cpu int) (chip, core, context int) {
	context = cpu % t.SMTWays
	g := cpu / t.SMTWays
	return g / t.CoresPerChip, g % t.CoresPerChip, context
}

// CoreOf returns the global core index of a logical CPU.
func (t Topology) CoreOf(cpu int) int { return cpu / t.SMTWays }

// ThreadOf returns the context index of a logical CPU within its core.
func (t Topology) ThreadOf(cpu int) int { return cpu % t.SMTWays }

// ChipOf returns the chip index of a logical CPU.
func (t Topology) ChipOf(cpu int) int { return cpu / (t.SMTWays * t.CoresPerChip) }

// ChipOfCore returns the chip index of a global core.
func (t Topology) ChipOfCore(core int) int { return core / t.CoresPerChip }

// SiblingCPU returns the logical CPU sharing a core with cpu (2-way SMT).
func (t Topology) SiblingCPU(cpu int) int { return cpu ^ 1 }

// Machine is a multi-chip POWER5 node: Topology.Chips identical Chips
// advanced in lockstep, each with its own private memory hierarchy
// (per-chip shared L2/L3 — the contention domain internal/mem models).
// Cores are addressed by a global index, chip-major: global core g lives
// on chip g/CoresPerChip as local core g%CoresPerChip.
//
// A single-chip Machine delegates to the underlying Chip, so the default
// topology is cycle- and allocation-identical to driving a Chip directly.
type Machine struct {
	topo   Topology
	chips  []*Chip
	halted bool
}

// NewMachine builds a machine of topo.Chips chips, each configured by
// cfg with Cores overridden to topo.CoresPerChip (and its own memory
// hierarchy sized accordingly).
func NewMachine(topo Topology, cfg Config) (*Machine, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{topo: topo}
	for i := 0; i < topo.Chips; i++ {
		ccfg := cfg
		ccfg.Cores = topo.CoresPerChip
		ccfg.ThreadsPerCore = topo.SMTWays
		ch, err := New(ccfg)
		if err != nil {
			return nil, err
		}
		m.chips = append(m.chips, ch)
	}
	return m, nil
}

// WrapChip wraps an existing single chip as a one-chip Machine, deriving
// the topology from the chip's configuration.
func WrapChip(ch *Chip) *Machine {
	cfg := ch.Config()
	return &Machine{
		topo:  Topology{Chips: 1, CoresPerChip: cfg.Cores, SMTWays: cfg.ThreadsPerCore},
		chips: []*Chip{ch},
	}
}

// Topology returns the machine topology.
func (m *Machine) Topology() Topology { return m.topo }

// NumChips returns the chip count.
func (m *Machine) NumChips() int { return len(m.chips) }

// Chip returns chip i (for per-chip statistics).
func (m *Machine) Chip(i int) *Chip { return m.chips[i] }

// Config returns the per-chip configuration.
func (m *Machine) Config() Config { return m.chips[0].Config() }

// route translates a global core index to its chip and local core.
func (m *Machine) route(globalCore int) (*Chip, int) {
	if globalCore < 0 || globalCore >= m.topo.Cores() {
		panic(fmt.Sprintf("power5: no global core %d in topology %s", globalCore, m.topo))
	}
	return m.chips[globalCore/m.topo.CoresPerChip], globalCore % m.topo.CoresPerChip
}

// Cycle returns the current cycle number (chips run in lockstep).
func (m *Machine) Cycle() int64 { return m.chips[0].Cycle() }

// Seconds converts a cycle count to seconds at the configured clock.
func (m *Machine) Seconds(cycles int64) float64 { return m.chips[0].Seconds(cycles) }

// Halt makes RunUntil return at the end of the current machine cycle.
// It may be called from an OnEmpty handler.
func (m *Machine) Halt() {
	m.halted = true
	for _, ch := range m.chips {
		ch.Halt()
	}
}

// AllIdle reports whether every chip is idle.
func (m *Machine) AllIdle() bool {
	for _, ch := range m.chips {
		if !ch.AllIdle() {
			return false
		}
	}
	return true
}

// RunUntil advances all chips in lockstep until the given cycle number,
// stopping early on Halt or full idleness.  It returns the cycles run.
func (m *Machine) RunUntil(target int64) int64 {
	if len(m.chips) == 1 {
		return m.chips[0].RunUntil(target)
	}
	m.halted = false
	start := m.Cycle()
	for m.Cycle() < target && !m.halted {
		for _, ch := range m.chips {
			ch.Step()
		}
		if m.AllIdle() {
			break
		}
	}
	return m.Cycle() - start
}

// Run advances the machine n cycles (see RunUntil).
func (m *Machine) Run(n int64) int64 { return m.RunUntil(m.Cycle() + n) }

// OnEmpty registers the stream-exhausted callback; the core argument is
// the global core index.
func (m *Machine) OnEmpty(f func(globalCore, thread int)) {
	for i, ch := range m.chips {
		base := i * m.topo.CoresPerChip
		ch.OnEmpty(func(core, thread int) { f(base+core, thread) })
	}
}

// SetStream installs s as the instruction stream of a context; a nil
// stream idles the context.
func (m *Machine) SetStream(globalCore, thread int, s isa.Stream) {
	ch, c := m.route(globalCore)
	ch.SetStream(c, thread, s)
}

// Running reports whether the context currently has a stream.
func (m *Machine) Running(globalCore, thread int) bool {
	ch, c := m.route(globalCore)
	return ch.Running(c, thread)
}

// SetPriority sets the hardware thread priority of a context.
func (m *Machine) SetPriority(globalCore, thread int, p hwpri.Priority) {
	ch, c := m.route(globalCore)
	ch.SetPriority(c, thread, p)
}

// Priority returns the hardware thread priority of a context.
func (m *Machine) Priority(globalCore, thread int) hwpri.Priority {
	ch, c := m.route(globalCore)
	return ch.Priority(c, thread)
}

// SetPrivilege sets the privilege level of a context.
func (m *Machine) SetPrivilege(globalCore, thread int, pr hwpri.Privilege) {
	ch, c := m.route(globalCore)
	ch.SetPrivilege(c, thread, pr)
}

// Allocation returns the current decode allocation of a global core.
func (m *Machine) Allocation(globalCore int) hwpri.Allocation {
	ch, c := m.route(globalCore)
	return ch.Allocation(c)
}

// Stats returns a snapshot of a context's counters.
func (m *Machine) Stats(globalCore, thread int) ContextStats {
	ch, c := m.route(globalCore)
	return ch.Stats(c, thread)
}

// TouchMemory brings addr into the global core's chip-local cache
// hierarchy without consuming simulated time (see Chip.TouchMemory).
func (m *Machine) TouchMemory(globalCore int, addr uint64) {
	ch, c := m.route(globalCore)
	ch.TouchMemory(c, addr)
}

// Hierarchy returns chip i's memory hierarchy (for statistics).
func (m *Machine) Hierarchy(i int) *mem.Hierarchy { return m.chips[i].Hierarchy() }

// Release resets every chip and hands it to New for reuse by a later
// machine of the same configuration.  Only the machine's owner may call
// it, once, after its last use: the machine keeps no chips, and a chip
// obtained earlier through Chip panics if stepped while it waits for
// reuse.
func (m *Machine) Release() {
	for _, ch := range m.chips {
		ch.release()
	}
	m.chips = nil
}
