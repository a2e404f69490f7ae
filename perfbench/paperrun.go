package main

import (
	"context"
	"fmt"

	smtbalance "repro"
)

// paperScale sizes each paper shape (metbench, bt-mz, siesta) so that all
// three simulate in about the same host time (~100 ms on a 2-vCPU x86
// host), keeping paper-run's latency distribution unimodal.
var paperScale = [3]float64{0.8, 1.05, 0.42}

const (
	paperPool   = 240 // distinct seeded jobs a run cycles through
	paperVerify = 16  // every 16th answer is re-verified exactly
)

// runPaper is paper-run: a closed loop with one client, one cold
// Machine.Run per request in the paper's default environment (1x2x2,
// patched kernel, OS ticks on), every job pinned in order at medium
// priority (the paper's Case A).
func runPaper(ctx context.Context, cfg config) (*outcome, error) {
	pl := smtbalance.PinInOrder(4)
	type state struct {
		specs []jobSpec
		jobs  []smtbalance.Job
	}
	setup := func() (*state, error) {
		rng := newRNG(cfg.seed, 1)
		st := &state{}
		for i := 0; i < paperPool; i++ {
			spec := paperShapes[i%3](rng, paperScale[i%3])
			st.specs = append(st.specs, spec)
			st.jobs = append(st.jobs, spec.public())
		}
		// One untimed cold run of each shape, so lazy first-call costs
		// land in set-up and set-up is long enough to time steadily.
		for k, shape := range paperShapes {
			m, err := smtbalance.NewMachine(nil)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(ctx, shape(rng, paperScale[k]).public(), pl); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	st, setups, err := timeSetups(setup, func(*state) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	var cycles, ticked int64
	var totals cacheTotals
	answers := map[int]*smtbalance.Result{}
	reset := func() {
		cycles, ticked, totals = 0, 0, cacheTotals{}
		clear(answers)
	}
	do := func(tr *tracer) func(context.Context, int, int) error {
		return func(ctx context.Context, req, sp int) error {
			m, err := smtbalance.NewMachine(nil)
			if err != nil {
				return err
			}
			s := tr.begin("smtbalance.Machine.Run", sp, req)
			res, err := m.Run(ctx, st.jobs[req%paperPool], pl)
			tr.end(s)
			if err != nil {
				return err
			}
			cycles += res.Cycles
			ticked += res.Cycles - res.SkippedCycles
			totals.add(m.CacheStats())
			if req%paperVerify == 0 {
				answers[req] = res
			}
			return nil
		}
	}
	loop := timedLoop(ctx, cfg, reset, do)
	out := &outcome{setups: setups, lat: loop.lat, window: loop.window, cycles: cycles,
		attempted: loop.attempted, failed: loop.failed, allocMB: loop.allocMB}
	if loop.failed == 0 {
		var byShape [3][]float64
		for i, l := range loop.lat {
			byShape[i%3] = append(byShape[i%3], l)
		}
		out.notes = append(out.notes, fmt.Sprintf("p50 by shape (ms): metbench %.1f, bt-mz %.1f, siesta %.1f",
			median(byShape[0]), median(byShape[1]), median(byShape[2])))
	}

	// Re-run the sampled requests with exact per-cycle stepping on fresh
	// machines and compare every field.
	var checks []check
	for req, res := range answers {
		checks = append(checks, check{fmt.Sprintf("paper-run request %d", req), func() ([]string, error) {
			m, err := smtbalance.NewMachine(&smtbalance.Options{Exact: true})
			if err != nil {
				return nil, err
			}
			want, err := m.Run(ctx, st.jobs[req%paperPool], pl)
			if err != nil {
				return nil, err
			}
			return diffResults(res, want), nil
		}})
	}
	var bad int
	out.checked, bad = runChecks(checks, cfg.nproc)
	out.failed += bad

	if !cfg.trace {
		return out, nil
	}
	out.layers = map[string]float64{"serve.shed": 0, "serve.late_p90_ms": 0}
	in := probeInput{jobs: st.specs[:6], pls: []smtbalance.Placement{pl}}
	if err := probeLayers(ctx, cfg, in, out.layers); err != nil {
		return nil, err
	}
	totals.report(out.layers)
	// Attribution: every request is a run whose cycles were all ticked
	// (OS ticks keep phase-skip off), so the layers' self time is the
	// ticked cycles times the cost of one power5 cycle.
	cycleNs := out.layers["power5.cycle_ns"]
	out.layers["attrib.gap_share"] = 1 - float64(ticked)*cycleNs/(sum(loop.lat)*1e6)
	out.notes = append(out.notes,
		fmt.Sprintf("ticked share in the window: %.4f of %d simulated cycles", float64(ticked)/float64(cycles), cycles))
	return out, finishTrace(cfg, out, loop)
}
