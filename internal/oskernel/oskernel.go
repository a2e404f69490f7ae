// Package oskernel simulates the operating-system layer of the paper's
// testbed: a Linux 2.6.19-like kernel running on the simulated POWER5
// (internal/power5).
//
// It reproduces the kernel behaviours of Section VI:
//
//   - The *vanilla* kernel resets the hardware thread priority of a CPU to
//     MEDIUM every time it enters an interrupt handler, because it does not
//     track the current priority; any priority set by software is therefore
//     clobbered at the next timer tick.  It also offers no interface for
//     user space to set the supervisor-level priorities 1, 5 and 6.
//   - The *patched* kernel (Config.Patched) removes the priority
//     manipulation from the handlers and exposes every OS-settable
//     priority (1..6) through `echo N > /proc/<PID>/hmt_priority`
//     (WriteHMTPriority).
//   - Idle logical CPUs have their priority lowered (the standard kernel's
//     idle-loop etiquette), letting the busy sibling use the whole core.
//
// The kernel also injects the extrinsic-imbalance sources of Section II-B:
// periodic timer-tick handlers with a real instruction cost and optional
// per-CPU daemons that steal the CPU from the running process.
package oskernel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/power5"
	"repro/internal/workload"
)

// kernelBase is the start of the simulated kernel address space; handler
// instruction streams walk per-CPU regions above it so OS noise pollutes
// the caches like real handlers do.
const kernelBase = uint64(0xC000) << 32

// Daemon describes a periodic per-CPU system daemon (a profile collector,
// statistics gatherer, etc. — the "user daemons" extrinsic-imbalance
// source of Section II-B).
type Daemon struct {
	// CPU is the logical CPU the daemon is bound to.
	CPU int
	// Period is the cycle interval between activations.
	Period int64
	// Run is the number of instructions each activation executes.
	Run int64
}

// Config describes the simulated kernel.
type Config struct {
	// Patched applies the paper's kernel patch (Section VI-B).
	Patched bool
	// TickPeriod is the cycle interval between timer interrupts per CPU;
	// 0 disables ticks.  The default models a 1000 Hz kernel scaled to
	// the experiments' workload scale.
	TickPeriod int64
	// TickCost is the instruction count of the tick handler.
	TickCost int64
	// Daemons are optional extrinsic-noise daemons.
	Daemons []Daemon
}

// DefaultConfig returns the kernel configuration used by the experiments:
// a patched kernel with timer ticks whose relative cost matches a 1000 Hz
// Linux on the scaled-down workloads.
func DefaultConfig() Config {
	return Config{
		Patched:    true,
		TickPeriod: 100_000,
		TickCost:   400,
	}
}

// Process is a simulated OS process pinned to one logical CPU.
type Process struct {
	// PID is the process identifier.
	PID int
	// Name labels the process in diagnostics.
	Name string
	// CPU is the logical CPU the process is pinned to.
	CPU int
	// HMT is the hardware thread priority assigned to the process (the
	// value written to /proc/<PID>/hmt_priority).
	HMT hwpri.Priority

	user isa.Stream
	// gen is user when it is a workload generator, so the CPU stream
	// calls it without an interface dispatch.
	gen     *workload.Gen
	started bool
}

// setUser installs the process's user stream.
func (p *Process) setUser(s isa.Stream) {
	p.user = s
	p.gen, _ = s.(*workload.Gen)
}

// next yields p's next user instruction; a nil p or user stream has none.
func (p *Process) next(in *isa.Instr) bool { return p != nil && p.user != nil && p.user.Next(in) }

// Kernel is the simulated operating system.  It manages one machine —
// a single chip on the paper's OpenPower 710, or a multi-chip node
// (power5.Machine) — addressing every hardware context through a flat
// logical-CPU namespace, as Linux does.
type Kernel struct {
	mach  *power5.Machine
	cfg   Config
	procs map[int]*Process
	cpus  []*cpuState
	next  int

	onProcEnd func(*Process)
}

// cpuState is the per-logical-CPU kernel state.
type cpuState struct {
	id      int
	proc    *Process
	offline bool
	stream  *cpuStream
}

// Errors returned by the procfs interface.
var (
	// ErrNoProcFile is returned by WriteHMTPriority on a vanilla kernel:
	// /proc/<PID>/hmt_priority only exists with the paper's patch.
	ErrNoProcFile = errors.New("oskernel: /proc/<pid>/hmt_priority does not exist (kernel not patched)")
	// ErrBadPriority is returned for priorities outside the OS range 1..6.
	ErrBadPriority = errors.New("oskernel: priority outside OS-settable range 1..6")
	// ErrNoProcess is returned for unknown PIDs.
	ErrNoProcess = errors.New("oskernel: no such process")
	// ErrCPUBusy is returned when pinning onto an occupied or offline CPU.
	ErrCPUBusy = errors.New("oskernel: CPU busy or offline")
)

// New builds a kernel managing the given single chip.
func New(chip *power5.Chip, cfg Config) *Kernel {
	return NewMachine(power5.WrapChip(chip), cfg)
}

// NewMachine builds a kernel managing a (possibly multi-chip) machine.
func NewMachine(mach *power5.Machine, cfg Config) *Kernel {
	k := &Kernel{
		mach:  mach,
		cfg:   cfg,
		procs: make(map[int]*Process),
		next:  1,
	}
	n := mach.Topology().Contexts()
	for cpu := 0; cpu < n; cpu++ {
		cs := &cpuState{id: cpu}
		cs.stream = newCPUStream(k, cs)
		k.cpus = append(k.cpus, cs)
		// Idle-loop etiquette: an idle CPU runs at very low priority so
		// the sibling context gets the core's resources.
		k.applyIdlePriority(cpu)
	}
	mach.OnEmpty(k.handleStreamEnd)
	return k
}

// Chip returns the machine's first chip (the whole machine of the
// paper's single-chip testbed); multi-chip callers use Machine.
func (k *Kernel) Chip() *power5.Chip { return k.mach.Chip(0) }

// Machine returns the underlying machine.
func (k *Kernel) Machine() *power5.Machine { return k.mach }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// NumCPUs returns the number of logical CPUs (SMT contexts).
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// coreThread maps a logical CPU to its (global core, thread) pair: CPU0/1
// are the two contexts of core 0, CPU2/3 of core 1, and so on chip-major,
// matching the paper's mapping where P1,P2 share the first core.
func (k *Kernel) coreThread(cpu int) (int, int) {
	topo := k.mach.Topology()
	return topo.CoreOf(cpu), topo.ThreadOf(cpu)
}

// CPUOfCoreThread is the inverse mapping (core is the global core index).
func (k *Kernel) CPUOfCoreThread(core, thread int) int {
	return core*k.mach.Topology().SMTWays + thread
}

func (k *Kernel) applyIdlePriority(cpu int) {
	core, thr := k.coreThread(cpu)
	if k.cpus[cpu].offline {
		k.mach.SetPriority(core, thr, hwpri.ThreadOff)
		return
	}
	k.mach.SetPriority(core, thr, hwpri.VeryLow)
}

// Spawn creates a process pinned to cpu with the given user stream and
// hardware priority and starts it immediately.  Note that on a vanilla
// kernel the priority will be clobbered to MEDIUM by the first interrupt.
func (k *Kernel) Spawn(name string, cpu int, user isa.Stream, hmt hwpri.Priority) (*Process, error) {
	if cpu < 0 || cpu >= len(k.cpus) {
		return nil, fmt.Errorf("oskernel: no CPU %d", cpu)
	}
	cs := k.cpus[cpu]
	if cs.proc != nil || cs.offline {
		return nil, ErrCPUBusy
	}
	if !hmt.Valid() {
		return nil, ErrBadPriority
	}
	p := &Process{PID: k.next, Name: name, CPU: cpu, HMT: hmt}
	p.setUser(user)
	k.next++
	k.procs[p.PID] = p
	cs.proc = p
	core, thr := k.coreThread(cpu)
	k.mach.SetPriority(core, thr, hmt)
	k.mach.SetPrivilege(core, thr, hwpri.ProblemState)
	k.mach.SetStream(core, thr, cs.stream)
	p.started = true
	return p, nil
}

// Exit removes a process and idles its CPU.
func (k *Kernel) Exit(p *Process) {
	cs := k.cpus[p.CPU]
	if cs.proc != p {
		return
	}
	cs.proc = nil
	delete(k.procs, p.PID)
	core, thr := k.coreThread(p.CPU)
	k.mach.SetStream(core, thr, nil)
	k.applyIdlePriority(p.CPU)
}

// Process looks a process up by PID.
func (k *Kernel) Process(pid int) (*Process, error) {
	p, ok := k.procs[pid]
	if !ok {
		return nil, ErrNoProcess
	}
	return p, nil
}

// ProcessOn returns the process pinned to cpu, or nil.
func (k *Kernel) ProcessOn(cpu int) *Process { return k.cpus[cpu].proc }

// SetUserStream replaces the user stream of a process (the runtime uses
// this to move a rank between compute, spin and communication phases) and
// re-arms the CPU.
func (k *Kernel) SetUserStream(p *Process, s isa.Stream) {
	p.setUser(s)
	cs := k.cpus[p.CPU]
	if cs.proc != p {
		return
	}
	core, thr := k.coreThread(p.CPU)
	k.mach.SetStream(core, thr, cs.stream)
}

// OnProcessStreamEnd registers the callback fired when a process's user
// stream runs dry (the runtime advances the rank's program from it).
func (k *Kernel) OnProcessStreamEnd(f func(*Process)) { k.onProcEnd = f }

func (k *Kernel) handleStreamEnd(core, thread int) {
	cpu := k.CPUOfCoreThread(core, thread)
	cs := k.cpus[cpu]
	if cs.proc == nil {
		return
	}
	if k.onProcEnd != nil {
		k.onProcEnd(cs.proc)
	}
}

// WriteHMTPriority emulates `echo N > /proc/<PID>/hmt_priority`, the
// interface added by the paper's kernel patch: it accepts every priority
// available at OS level (1..6) and applies it to the process's hardware
// context immediately.  On a vanilla kernel the file does not exist.
func (k *Kernel) WriteHMTPriority(pid int, pri hwpri.Priority) error {
	if !k.cfg.Patched {
		return ErrNoProcFile
	}
	if pri < hwpri.VeryLow || pri > hwpri.High {
		return ErrBadPriority
	}
	p, ok := k.procs[pid]
	if !ok {
		return ErrNoProcess
	}
	p.HMT = pri
	core, thr := k.coreThread(p.CPU)
	k.mach.SetPriority(core, thr, pri)
	return nil
}

// OfflineCPU takes a logical CPU offline (hardware priority 0), putting
// the core in single-thread mode if the sibling is active — how the ST
// rows of Tables V and VI are obtained.  The CPU must be idle.
func (k *Kernel) OfflineCPU(cpu int) error {
	if cpu < 0 || cpu >= len(k.cpus) {
		return fmt.Errorf("oskernel: no CPU %d", cpu)
	}
	cs := k.cpus[cpu]
	if cs.proc != nil {
		return ErrCPUBusy
	}
	cs.offline = true
	k.applyIdlePriority(cpu)
	return nil
}

// OnlineCPU brings an offlined CPU back.
func (k *Kernel) OnlineCPU(cpu int) error {
	if cpu < 0 || cpu >= len(k.cpus) {
		return fmt.Errorf("oskernel: no CPU %d", cpu)
	}
	k.cpus[cpu].offline = false
	k.applyIdlePriority(cpu)
	return nil
}

// cpuStream is the effective instruction stream of one logical CPU: the
// pinned process's user stream, preempted by timer-tick handlers and
// daemons.
type cpuStream struct {
	k  *Kernel
	cs *cpuState
	// clock is the machine's first chip; the chips run in lockstep.
	clock *power5.Chip
	// core/thr cache the topology mapping of cs.id: Next sits on the
	// per-cycle decode path and the mapping never changes.
	core, thr int
	// quiet is the cycle before which nothing can preempt the user
	// stream: the next tick or daemon activation, math.MinInt64 while a
	// handler or daemon runs, math.MaxInt64 when neither can ever fire.
	// It is derived from the fields below (see settle).
	quiet int64

	inHandler   bool
	handlerLeft int64
	nextTick    int64

	inDaemon   bool
	daemonLeft int64
	nextDaemon int64
	daemon     *Daemon

	kgen *workload.Gen
}

func newCPUStream(k *Kernel, cs *cpuState) *cpuStream {
	s := &cpuStream{k: k, cs: cs, clock: k.mach.Chip(0)}
	s.core, s.thr = k.coreThread(cs.id)
	s.kgen = workload.NewGen(workload.Load{
		Kind: workload.FXU,
		N:    1 << 62,
		Base: kernelBase + uint64(cs.id)<<24,
		Seed: uint64(cs.id) + 1,
	})
	if k.cfg.TickPeriod > 0 {
		// Stagger ticks across CPUs as real per-CPU timers are.  The
		// divisor is the machine's context count, so the offsets stay
		// inside one period whatever the topology (and match the
		// original 4-context machine exactly on the default topology).
		s.nextTick = k.cfg.TickPeriod + int64(cs.id)*k.cfg.TickPeriod/int64(k.mach.Topology().Contexts())
	}
	for i := range k.cfg.Daemons {
		if k.cfg.Daemons[i].CPU == cs.id {
			s.daemon = &k.cfg.Daemons[i]
			s.nextDaemon = s.daemon.Period
		}
	}
	s.settle()
	return s
}

// settle recomputes quiet from the preemption state.
func (s *cpuStream) settle() {
	switch {
	case s.inHandler || s.inDaemon:
		s.quiet = math.MinInt64
		return
	case s.k.cfg.TickPeriod > 0:
		s.quiet = s.nextTick
	default:
		s.quiet = math.MaxInt64
	}
	if s.daemon != nil {
		s.quiet = min(s.quiet, s.nextDaemon)
	}
}

// Next implements isa.Stream.
func (s *cpuStream) Next(in *isa.Instr) bool {
	if s.clock.Cycle() >= s.quiet {
		return s.preempted(in)
	}
	if p := s.cs.proc; p != nil && p.gen != nil {
		return p.gen.Next(in)
	}
	return s.cs.proc.next(in)
}

// preempted is Next once a tick or daemon is due or running: it starts
// the due one, feeds the kernel mix while it runs, and falls back to the
// user stream when nothing is due after all.
func (s *cpuStream) preempted(in *isa.Instr) bool {
	cycle := s.clock.Cycle()
	core, thr := s.core, s.thr

	if !s.inHandler && !s.inDaemon {
		if s.k.cfg.TickPeriod > 0 && cycle >= s.nextTick {
			s.inHandler = true
			s.handlerLeft = s.k.cfg.TickCost
			s.nextTick += s.k.cfg.TickPeriod
			s.k.mach.SetPrivilege(core, thr, hwpri.Supervisor)
			if !s.k.cfg.Patched {
				// Vanilla kernel: the handler resets the thread
				// priority to MEDIUM and, since the kernel does not
				// track the current priority, never restores it
				// (Section VI-A).
				s.k.mach.SetPriority(core, thr, hwpri.Medium)
			}
		} else if s.daemon != nil && cycle >= s.nextDaemon {
			s.inDaemon = true
			s.daemonLeft = s.daemon.Run
			s.nextDaemon += s.daemon.Period
		}
	}

	if s.inHandler || s.inDaemon {
		if !s.kgen.Next(in) {
			// The kernel-mix generator is effectively infinite; treat
			// exhaustion as handler exit.
			s.kgen.Reset()
			s.kgen.Next(in)
		}
		if s.inHandler {
			s.handlerLeft--
			if s.handlerLeft <= 0 {
				s.inHandler = false
				s.k.mach.SetPrivilege(core, thr, hwpri.ProblemState)
			}
		} else {
			s.daemonLeft--
			if s.daemonLeft <= 0 {
				s.inDaemon = false
			}
		}
		s.settle()
		return true
	}
	s.settle()
	return s.cs.proc.next(in)
}

// Reset implements isa.Stream; CPU streams are not rewindable, so Reset
// only resets the kernel-mix generator.
func (s *cpuStream) Reset() { s.kgen.Reset() }
