package experiments

import (
	"context"
	"fmt"

	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/power5"
	"repro/internal/sweep"
)

// DecodeRow is one row of the Table II reproduction: a priority difference
// with its architectural decode-cycle split and the split actually
// measured on the simulator's decode stage.
type DecodeRow struct {
	// Diff is |X-Y|.
	Diff int
	// R is the arbitration window length 2^(Diff+1).
	R int
	// SlotsA and SlotsB are the architectural decode cycles per window.
	SlotsA, SlotsB int
	// MeasuredA and MeasuredB are the decode-cycle fractions observed
	// over a long run (they should match SlotsA/R and SlotsB/R).
	MeasuredA, MeasuredB float64
	// IPCA and IPCB are the resulting throughputs, showing how the slot
	// split translates into performance.
	IPCA, IPCB float64
}

// fullWidthStream returns an instruction stream able to sustain the full
// decode width: independent operations spread across all unit classes, so
// the drain rate never falls below the decode supply and the measured
// decode-cycle split equals the architectural slot allocation.
func fullWidthStream(base uint64) isa.Stream {
	return isa.NewLoopStream([]isa.Instr{
		{Op: isa.FX, PC: 0},
		{Op: isa.FP, PC: 4},
		{Op: isa.Load, Addr: base, PC: 8},
		{Op: isa.FX, PC: 12},
		{Op: isa.FP, PC: 16},
		{Op: isa.Store, Addr: base + 128, PC: 20},
		{Op: isa.Branch, Taken: true, PC: 24},
	})
}

// measureDecode co-runs two always-ready full-width streams at the given
// priorities and returns decode-cycle fractions and IPCs.
func measureDecode(pa, pb hwpri.Priority, cycles int64) (fa, fb, ipca, ipcb float64) {
	ch := power5.MustNew(power5.DefaultConfig())
	ch.SetPriority(0, 0, pa)
	ch.SetPriority(0, 1, pb)
	ch.SetStream(0, 0, fullWidthStream(0))
	ch.SetStream(0, 1, fullWidthStream(1<<32))
	ch.Run(cycles)
	sa, sb := ch.Stats(0, 0), ch.Stats(0, 1)
	owned := float64(sa.DecodeCycles + sb.DecodeCycles)
	if owned == 0 {
		return 0, 0, 0, 0
	}
	return float64(sa.DecodeCycles) / owned, float64(sb.DecodeCycles) / owned,
		float64(sa.Completed) / float64(cycles), float64(sb.Completed) / float64(cycles)
}

// Table2 reproduces Table II: decode-cycle allocation for priority
// differences 0..4, measured on the simulator.
func Table2(ctx context.Context, opt Options) ([]DecodeRow, error) {
	opt = opt.normalize()
	cycles := scaleLoad(400_000, opt.Scale)
	// Priority pairs realizing differences 0..4 within the OS range.
	// Each row measures its own chip instance, so rows fan out across
	// the worker pool.
	pairs := [][2]hwpri.Priority{{4, 4}, {5, 4}, {6, 4}, {6, 3}, {6, 2}}
	return sweep.Map(ctx, len(pairs), opt.Workers, func(d int) DecodeRow {
		p := pairs[d]
		al := hwpri.Alloc(p[0], p[1])
		fa, fb, ipca, ipcb := measureDecode(p[0], p[1], cycles)
		r := 2
		if d > 0 {
			r = hwpri.R(p[0], p[1])
		}
		return DecodeRow{
			Diff:      d,
			R:         r,
			SlotsA:    al.Slots[0],
			SlotsB:    al.Slots[1],
			MeasuredA: fa,
			MeasuredB: fb,
			IPCA:      ipca,
			IPCB:      ipcb,
		}
	})
}

// CheckTable2 asserts that the measured decode split matches the
// architectural R-1 : 1 allocation within 2 percentage points for every
// difference.
func CheckTable2(rows []DecodeRow) error {
	for _, row := range rows {
		wantA := float64(row.SlotsA) / float64(row.R)
		if diff := row.MeasuredA - wantA; diff < -0.02 || diff > 0.02 {
			return fmt.Errorf("diff %d: measured decode share %.3f, architectural %.3f",
				row.Diff, row.MeasuredA, wantA)
		}
		if row.Diff > 0 && row.IPCB >= row.IPCA {
			return fmt.Errorf("diff %d: penalized IPC %.3f not below favored %.3f",
				row.Diff, row.IPCB, row.IPCA)
		}
	}
	// The penalized thread collapses monotonically.
	for i := 1; i < len(rows); i++ {
		if rows[i].IPCB >= rows[i-1].IPCB {
			return fmt.Errorf("penalized IPC not monotone at diff %d: %.3f >= %.3f",
				rows[i].Diff, rows[i].IPCB, rows[i-1].IPCB)
		}
	}
	return nil
}

// FormatTable2 renders the Table II reproduction.
func FormatTable2(rows []DecodeRow) string {
	tb := metrics.NewTable("Table II — decode cycle allocation by priority difference",
		"|X-Y|", "R", "slots A:B", "measured A:B", "IPC A", "IPC B")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(r.Diff), fmt.Sprint(r.R),
			fmt.Sprintf("%d:%d", r.SlotsA, r.SlotsB),
			fmt.Sprintf("%.3f:%.3f", r.MeasuredA, r.MeasuredB),
			fmt.Sprintf("%.2f", r.IPCA), fmt.Sprintf("%.2f", r.IPCB))
	}
	return tb.String()
}

// SpecialRow is one row of the Table III reproduction.
type SpecialRow struct {
	// PrioA, PrioB are the thread priorities.
	PrioA, PrioB hwpri.Priority
	// Mode is the resulting allocation regime.
	Mode hwpri.Mode
	// IPCA, IPCB are the measured throughputs.
	IPCA, IPCB float64
	// Action is the paper's description of the row.
	Action string
}

// Table3 reproduces Table III: the special allocation regimes when a
// priority is 0 or 1.
func Table3(ctx context.Context, opt Options) ([]SpecialRow, error) {
	opt = opt.normalize()
	cycles := scaleLoad(400_000, opt.Scale)
	pairs := [][2]hwpri.Priority{
		{4, 4}, // regular shared row for reference
		{1, 4}, // B gets all, A leftover
		{1, 1}, // power save
		{0, 4}, // ST mode
		{0, 1}, // throttled
		{0, 0}, // stopped
	}
	var rows []SpecialRow
	for _, p := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		al := hwpri.Alloc(p[0], p[1])
		_, _, ipca, ipcb := measureDecode(p[0], p[1], cycles)
		rows = append(rows, SpecialRow{
			PrioA: p[0], PrioB: p[1],
			Mode: al.Mode,
			IPCA: ipca, IPCB: ipcb,
			Action: al.Describe(),
		})
	}
	return rows, nil
}

// CheckTable3 asserts each special regime behaves per Table III.
func CheckTable3(rows []SpecialRow) error {
	byPair := func(a, b hwpri.Priority) SpecialRow {
		for _, r := range rows {
			if r.PrioA == a && r.PrioB == b {
				return r
			}
		}
		return SpecialRow{}
	}
	ref := byPair(4, 4)
	leftover := byPair(1, 4)
	if leftover.IPCB <= ref.IPCB {
		return fmt.Errorf("1 vs 4: favored thread (%.3f) not faster than the 4/4 reference (%.3f)",
			leftover.IPCB, ref.IPCB)
	}
	if leftover.IPCA > ref.IPCA/4 {
		return fmt.Errorf("1 vs 4: leftover thread IPC %.3f, want a crawl", leftover.IPCA)
	}
	save := byPair(1, 1)
	// Power save: each thread gets at most 5 instructions per 64 cycles.
	if max := 5.0 / 64 * 1.1; save.IPCA > max || save.IPCB > max {
		return fmt.Errorf("1 vs 1: power-save IPCs %.4f/%.4f exceed the 1-of-64 bound", save.IPCA, save.IPCB)
	}
	st := byPair(0, 4)
	if st.IPCA != 0 {
		return fmt.Errorf("0 vs 4: dead thread has IPC %.4f", st.IPCA)
	}
	if st.IPCB < leftover.IPCB-0.01 {
		return fmt.Errorf("0 vs 4: ST thread (%.3f) slower than the leftover-favored regime (%.3f)",
			st.IPCB, leftover.IPCB)
	}
	throttled := byPair(0, 1)
	if max := 5.0 / 32 * 1.1; throttled.IPCB > max || throttled.IPCB == 0 {
		return fmt.Errorf("0 vs 1: throttled IPC %.4f outside (0, 1-of-32 bound]", throttled.IPCB)
	}
	stopped := byPair(0, 0)
	if stopped.IPCA != 0 || stopped.IPCB != 0 {
		return fmt.Errorf("0 vs 0: stopped core executed instructions (%.4f/%.4f)", stopped.IPCA, stopped.IPCB)
	}
	return nil
}

// FormatTable3 renders the Table III reproduction.
func FormatTable3(rows []SpecialRow) string {
	tb := metrics.NewTable("Table III — allocation when a priority is 0 or 1",
		"Thr.A", "Thr.B", "mode", "IPC A", "IPC B", "action")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(uint8(r.PrioA)), fmt.Sprint(uint8(r.PrioB)), r.Mode.String(),
			fmt.Sprintf("%.3f", r.IPCA), fmt.Sprintf("%.3f", r.IPCB), r.Action)
	}
	return tb.String()
}
