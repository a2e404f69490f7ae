package oskernel

import (
	"encoding/binary"

	"repro/internal/isa"
)

// cpuStream implements isa.FastForwarder so the phase-skip engine can
// snapshot machines running under the kernel.  The stream's behavioral
// state is the handler/daemon preemption machinery (with the next-fire
// times expressed relative to the current cycle — they advance in
// lockstep with the clock) plus its two sub-streams: the kernel
// instruction-mix generator and the pinned process's user stream.
//
// No other kernel state evolves during a run: processes, pinning,
// privilege, and priorities only change through explicit calls (which
// the engine's gating already excludes) or through the tick handler,
// whose effects live entirely in machine state already captured by the
// chip walk.

// ffUser returns the pinned process's user stream as a FastForwarder
// (nil when there is no user stream to capture) and whether capture is
// possible at all.
func (s *cpuStream) ffUser() (isa.FastForwarder, bool) {
	if s.cs.proc == nil || s.cs.proc.user == nil {
		return nil, true
	}
	ff, ok := s.cs.proc.user.(isa.FastForwarder)
	if !ok || !ff.FFSupported() {
		return nil, false
	}
	return ff, true
}

// FFSupported implements isa.FastForwarder: capture works whenever the
// user stream (if any) supports it; the kernel-mix generator always does.
func (s *cpuStream) FFSupported() bool {
	_, ok := s.ffUser()
	return ok
}

// FFNorm implements isa.FastForwarder.
func (s *cpuStream) FFNorm(b []byte) []byte {
	b = append(b, 0xC5)
	cycle := s.k.mach.Cycle()
	flags := byte(0)
	if s.inHandler {
		flags |= 1
	}
	if s.inDaemon {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.handlerLeft))
	if s.k.cfg.TickPeriod > 0 {
		// Signed offset: a blocked CPU can sit past its tick time.
		b = binary.LittleEndian.AppendUint64(b, uint64(s.nextTick-cycle))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(s.daemonLeft))
	if s.daemon != nil {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.nextDaemon-cycle))
	}
	b = s.kgen.FFNorm(b)
	if ff, _ := s.ffUser(); ff != nil {
		b = append(b, 1)
		b = ff.FFNorm(b)
	} else {
		b = append(b, 0)
	}
	return b
}

// FFCtrs implements isa.FastForwarder.
func (s *cpuStream) FFCtrs(c []int64) []int64 {
	c = s.kgen.FFCtrs(c)
	if ff, _ := s.ffUser(); ff != nil {
		c = ff.FFCtrs(c)
	}
	return c
}

// FFAdvance implements isa.FastForwarder.
func (s *cpuStream) FFAdvance(k, dt int64, d []int64) []int64 {
	s.nextTick += dt
	s.nextDaemon += dt
	s.settle()
	d = s.kgen.FFAdvance(k, dt, d)
	if ff, _ := s.ffUser(); ff != nil {
		d = ff.FFAdvance(k, dt, d)
	}
	return d
}
