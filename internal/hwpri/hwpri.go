// Package hwpri implements the IBM POWER5 hardware thread priority
// semantics described in Boneti et al., "Balancing HPC Applications Through
// Smart Allocation of Resources in MT Processors" (IPDPS 2008), Section V.
//
// Each SMT context of a POWER5 core carries a hardware thread priority in
// the range 0..7 (Table I).  The core allocates decode cycles to the two
// contexts as a function of the *difference* between their priorities
// (Table II): the decode time is divided into slices of R cycles, where
//
//	R = 2^(|X-Y|+1)
//
// and the lower-priority thread receives 1 of those R cycles while the
// higher-priority thread receives the remaining R-1.  When either priority
// is 0 or 1 the allocation follows the special rows of Table III (single
// thread mode, power-save mode, throttled mode, or stopped).
//
// The package is pure: it has no simulator state and is shared by the chip
// simulator (internal/power5), the OS layer (internal/oskernel) and the
// balancer (internal/core).
package hwpri

import "fmt"

// Priority is a POWER5 hardware thread priority (Table I).  It is unrelated
// to the operating system's notion of process priority.
type Priority uint8

// The eight hardware thread priorities of the POWER5 (Table I).
const (
	// ThreadOff (0) shuts the context off; the core may enter Single
	// Thread mode if the sibling context remains active.
	ThreadOff Priority = 0
	// VeryLow (1) gives the context only leftover decode cycles.
	VeryLow Priority = 1
	// Low (2) is the lowest priority settable from user space.
	Low Priority = 2
	// MediumLow (3) is settable from user space.
	MediumLow Priority = 3
	// Medium (4) is the default priority for running software.
	Medium Priority = 4
	// MediumHigh (5) requires supervisor (OS) privilege.
	MediumHigh Priority = 5
	// High (6) requires supervisor (OS) privilege.
	High Priority = 6
	// VeryHigh (7) requires hypervisor privilege and implies the sibling
	// context is off (Single Thread mode).
	VeryHigh Priority = 7
)

// NumPriorities is the count of distinct hardware priorities (0..7).
const NumPriorities = 8

var priorityNames = [NumPriorities]string{
	"thread-off", "very-low", "low", "medium-low",
	"medium", "medium-high", "high", "very-high",
}

// Valid reports whether p is one of the eight architected priorities.
func (p Priority) Valid() bool { return p < NumPriorities }

// String returns the architectural name of the priority level.
func (p Priority) String() string {
	if !p.Valid() {
		return fmt.Sprintf("priority(%d)", uint8(p))
	}
	return priorityNames[p]
}

// Privilege is the executing privilege level of software attempting to set
// a hardware priority (Table I, "Privilege level" column).
type Privilege uint8

// Privilege levels, ordered from least to most privileged.
const (
	// ProblemState is unprivileged user code.
	ProblemState Privilege = iota
	// Supervisor is operating-system code.
	Supervisor
	// Hypervisor is firmware/hypervisor code.
	Hypervisor
)

// String returns a human-readable privilege name.
func (pr Privilege) String() string {
	switch pr {
	case ProblemState:
		return "user"
	case Supervisor:
		return "supervisor"
	case Hypervisor:
		return "hypervisor"
	default:
		return fmt.Sprintf("privilege(%d)", uint8(pr))
	}
}

// MinPrivilege returns the least privilege level allowed to set priority p
// (Table I): priorities 0 and 7 are hypervisor-only, 1, 5 and 6 require the
// supervisor, and 2, 3, 4 may be set by user code.
func MinPrivilege(p Priority) Privilege {
	switch p {
	case ThreadOff, VeryHigh:
		return Hypervisor
	case VeryLow, MediumHigh, High:
		return Supervisor
	default:
		return ProblemState
	}
}

// CanSet reports whether software running at privilege pr may set priority p.
func CanSet(pr Privilege, p Priority) bool {
	return p.Valid() && pr >= MinPrivilege(p)
}

// OrNop is the "or Rx,Rx,Rx" no-op encoding that changes the hardware
// thread priority of the executing context (Table I, last column).  The
// POWER5 also exposes the priority through the Thread Status Register; the
// or-nop form is the one used by the paper and by the Linux kernel.
type OrNop struct {
	// Reg is the register number X in "or X,X,X".
	Reg uint8
}

// orNopRegs maps each settable priority to its or-nop register number
// (Table I).  Priority 0 has no or-nop form (index holds 0xFF).
var orNopRegs = [NumPriorities]uint8{
	ThreadOff:  0xFF,
	VeryLow:    31, // or 31,31,31
	Low:        1,  // or 1,1,1
	MediumLow:  6,  // or 6,6,6
	Medium:     2,  // or 2,2,2
	MediumHigh: 5,  // or 5,5,5
	High:       3,  // or 3,3,3
	VeryHigh:   7,  // or 7,7,7
}

// OrNop returns the or-nop instruction encoding that sets priority p, and
// whether such an encoding exists (priority 0 can only be set through the
// TSR by the hypervisor, so it has no or-nop form).
func (p Priority) OrNop() (OrNop, bool) {
	if !p.Valid() || orNopRegs[p] == 0xFF {
		return OrNop{}, false
	}
	return OrNop{Reg: orNopRegs[p]}, true
}

// FromOrNop decodes an or-nop back to the priority it requests.  Unknown
// register numbers are true no-ops and return ok == false.
func FromOrNop(o OrNop) (Priority, bool) {
	for p, r := range orNopRegs {
		if r != 0xFF && r == o.Reg {
			return Priority(p), true
		}
	}
	return 0, false
}

// String formats the or-nop in assembly syntax.
func (o OrNop) String() string { return fmt.Sprintf("or %d,%d,%d", o.Reg, o.Reg, o.Reg) }

// R returns the decode time-slice length R = 2^(|x-y|+1) used when both
// priorities are greater than 1 (Section V.A).  The lower-priority thread
// receives 1 of the R cycles and the higher-priority thread the remaining
// R-1.  R panics if either priority is invalid; callers handling priorities
// 0 and 1 must use Alloc, which implements the Table III special rows.
func R(x, y Priority) int {
	if !x.Valid() || !y.Valid() {
		panic(fmt.Sprintf("hwpri: invalid priorities %d, %d", x, y))
	}
	d := int(x) - int(y)
	if d < 0 {
		d = -d
	}
	return 1 << (d + 1)
}

// Mode classifies the decode-cycle allocation regime between the two
// contexts of a core (Tables II and III).
type Mode uint8

const (
	// ModeShared divides decode cycles per Table II: in every window of
	// R cycles the lower-priority thread gets 1 and the higher R-1.
	ModeShared Mode = iota
	// ModeLeftover (priority 1 vs >1): the higher-priority thread gets
	// all decode cycles; the priority-1 thread takes only what is left
	// over when the other cannot use its cycle.
	ModeLeftover
	// ModePowerSave (priority 1 vs 1): each thread receives 1 of 64
	// decode cycles.
	ModePowerSave
	// ModeSingleThread (priority 0 vs >1): the surviving thread owns the
	// core (ST mode) and receives all resources.
	ModeSingleThread
	// ModeThrottled (priority 0 vs 1): the surviving thread receives 1
	// of 32 decode cycles.
	ModeThrottled
	// ModeStopped (priority 0 vs 0): the core is stopped.
	ModeStopped
)

// String returns a short name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeShared:
		return "shared"
	case ModeLeftover:
		return "leftover"
	case ModePowerSave:
		return "power-save"
	case ModeSingleThread:
		return "single-thread"
	case ModeThrottled:
		return "throttled"
	case ModeStopped:
		return "stopped"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Allocation describes how decode cycles are divided between the two
// contexts of a core for a given priority pair.  It is produced by Alloc
// and consulted every cycle by the decode stage through Owner.
type Allocation struct {
	// Mode is the allocation regime.
	Mode Mode
	// Period is the length in cycles of the arbitration window: R for
	// ModeShared, 64 for ModePowerSave, 32 for ModeThrottled, 1 for
	// ModeSingleThread and ModeLeftover, 0 for ModeStopped.
	Period int
	// Favored is the context index (0 or 1) holding the larger share,
	// or -1 when the shares are equal or no thread runs.
	Favored int
	// Slots is the number of decode cycles per Period granted to each
	// context.  For ModeLeftover the favored thread's entry is Period
	// (all cycles) and the other 0, the leftover grant being dynamic.
	Slots [2]int
}

// Alloc computes the decode-cycle allocation for the priority pair (a, b)
// of contexts 0 and 1, implementing Table II for priorities above 1 and
// every row of Table III otherwise.
func Alloc(a, b Priority) Allocation {
	if !a.Valid() || !b.Valid() {
		panic(fmt.Sprintf("hwpri: invalid priorities %d, %d", a, b))
	}
	switch {
	case a == ThreadOff && b == ThreadOff:
		return Allocation{Mode: ModeStopped, Favored: -1}
	case a == ThreadOff && b == VeryLow:
		return Allocation{Mode: ModeThrottled, Period: 32, Favored: 1, Slots: [2]int{0, 1}}
	case a == VeryLow && b == ThreadOff:
		return Allocation{Mode: ModeThrottled, Period: 32, Favored: 0, Slots: [2]int{1, 0}}
	case a == ThreadOff:
		return Allocation{Mode: ModeSingleThread, Period: 1, Favored: 1, Slots: [2]int{0, 1}}
	case b == ThreadOff:
		return Allocation{Mode: ModeSingleThread, Period: 1, Favored: 0, Slots: [2]int{1, 0}}
	case a == VeryLow && b == VeryLow:
		return Allocation{Mode: ModePowerSave, Period: 64, Favored: -1, Slots: [2]int{1, 1}}
	case a == VeryLow:
		return Allocation{Mode: ModeLeftover, Period: 1, Favored: 1, Slots: [2]int{0, 1}}
	case b == VeryLow:
		return Allocation{Mode: ModeLeftover, Period: 1, Favored: 0, Slots: [2]int{1, 0}}
	}
	// Both priorities > 1: Table II.
	r := R(a, b)
	switch {
	case a == b:
		return Allocation{Mode: ModeShared, Period: 2, Favored: -1, Slots: [2]int{1, 1}}
	case a > b:
		return Allocation{Mode: ModeShared, Period: r, Favored: 0, Slots: [2]int{r - 1, 1}}
	default:
		return Allocation{Mode: ModeShared, Period: r, Favored: 1, Slots: [2]int{1, r - 1}}
	}
}

// Owner returns the context index (0 or 1) that owns the decode stage in
// the given (non-negative) cycle, or -1 when no context may decode.
// blocked reports, for each context, whether it is unable to use a decode
// cycle this cycle (stalled, stopped, or out of work); a shared- or
// leftover-mode slot whose owner is blocked is given to the sibling,
// matching the POWER5 behaviour of not wasting decode bandwidth.
// Power-save and throttled modes never give slots away: their purpose is
// to reduce activity, not preserve throughput.  Every Period is a power
// of two, so the slot within the window is a mask of the cycle.
func (al Allocation) Owner(cycle int64, blocked [2]bool) int {
	slot := cycle & int64(al.Period-1)
	switch al.Mode {
	case ModeStopped:
		return -1
	case ModeSingleThread:
		if blocked[al.Favored] {
			return -1
		}
		return al.Favored
	case ModeThrottled:
		if slot == 0 && !blocked[al.Favored] {
			return al.Favored
		}
		return -1
	case ModePowerSave:
		switch slot {
		case 0:
			if !blocked[0] {
				return 0
			}
		case int64(al.Period) / 2:
			if !blocked[1] {
				return 1
			}
		}
		return -1
	case ModeLeftover:
		return steal(al.Favored, blocked)
	default: // ModeShared
		if al.Favored < 0 {
			// Equal priorities: strict alternation, with stealing.
			return steal(int(cycle&1), blocked)
		}
		if slot == 0 {
			return steal(1-al.Favored, blocked)
		}
		return steal(al.Favored, blocked)
	}
}

// steal returns first unless it is blocked, else its sibling unless that
// is blocked too, else -1.
func steal(first int, blocked [2]bool) int {
	if !blocked[first] {
		return first
	}
	if !blocked[1-first] {
		return 1 - first
	}
	return -1
}

// Share returns the fraction of decode cycles statically granted to the
// given context under this allocation, ignoring dynamic stealing.  It is
// the quantity tabulated in Table II (e.g. 31/32 vs 1/32 for a priority
// difference of 4) and is used by the balancer's performance model.
func (al Allocation) Share(ctx int) float64 {
	switch al.Mode {
	case ModeStopped:
		return 0
	case ModeSingleThread, ModeLeftover:
		if ctx == al.Favored {
			return 1
		}
		return 0
	default:
		if al.Period == 0 {
			return 0
		}
		return float64(al.Slots[ctx]) / float64(al.Period)
	}
}

// Describe returns a one-line human-readable description of the
// allocation, in the style of the Table II / Table III rows.
func (al Allocation) Describe() string {
	switch al.Mode {
	case ModeStopped:
		return "processor is stopped"
	case ModeSingleThread:
		return fmt.Sprintf("ST mode: thread %d receives all resources", al.Favored)
	case ModeThrottled:
		return fmt.Sprintf("1 of 32 cycles are given to thread %d", al.Favored)
	case ModePowerSave:
		return "power save mode: both threads receive 1 of 64 decode cycles"
	case ModeLeftover:
		return fmt.Sprintf("thread %d gets all execution resources; thread %d takes what is left over",
			al.Favored, 1-al.Favored)
	default:
		return fmt.Sprintf("decode cycles %d:%d over a window of %d cycles",
			al.Slots[0], al.Slots[1], al.Period)
	}
}
