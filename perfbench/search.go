package main

import (
	"context"
	"fmt"

	smtbalance "repro"
)

const (
	searchPool   = 64  // distinct seeded jobs a run cycles through
	searchScreen = 4   // SweepOptions.Screen: keep the 4 best predictions plus the guard band
	searchSpace  = 486 // user-settable 4-rank space on the 2x2x2 node
)

// searchOptions is search's environment: a two-chip node without OS
// ticks, so phase-skip can engage and cross-chip placements exist.
var searchOptions = smtbalance.Options{
	Topology:  smtbalance.Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2},
	NoOSNoise: true,
}

// runSearch is search: a closed loop with one client, one screened sweep
// of the user-settable space per request on a fresh Machine.
func runSearch(ctx context.Context, cfg config) (*outcome, error) {
	type state struct {
		specs []jobSpec
		jobs  []smtbalance.Job
	}
	sweepOpts := func() *smtbalance.SweepOptions {
		return &smtbalance.SweepOptions{Screen: searchScreen, Workers: cfg.nproc}
	}
	setup := func() (*state, error) {
		rng := newRNG(cfg.seed, 2)
		st := &state{}
		for i := 0; i < searchPool; i++ {
			spec := ringJob(rng)
			st.specs = append(st.specs, spec)
			st.jobs = append(st.jobs, spec.public())
		}
		m, err := smtbalance.NewMachine(&searchOptions)
		if err != nil {
			return nil, err
		}
		if _, err := m.SweepAll(ctx, ringJob(rng).public(), smtbalance.UserSettableSpace(), sweepOpts()); err != nil {
			return nil, err
		}
		return st, nil
	}
	st, setups, err := timeSetups(setup, func(*state) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	var cycles, points int64
	var evaluated []float64
	var totals cacheTotals
	kept := map[int]*smtbalance.SweepResult{}
	reset := func() {
		cycles, points, totals = 0, 0, cacheTotals{}
		evaluated = nil
		clear(kept)
	}
	do := func(tr *tracer) func(context.Context, int, int) error {
		return func(ctx context.Context, req, sp int) error {
			m, err := smtbalance.NewMachine(&searchOptions)
			if err != nil {
				return err
			}
			s := tr.begin("smtbalance.Machine.SweepAll", sp, req)
			sw, err := m.SweepAll(ctx, st.jobs[req%searchPool], smtbalance.UserSettableSpace(), sweepOpts())
			tr.end(s)
			if err != nil {
				return err
			}
			if sw.Evaluated+sw.Screened != searchSpace || len(sw.Entries) != sw.Evaluated {
				return fmt.Errorf("sweep covered %d+%d points with %d entries, want %d", sw.Evaluated, sw.Screened, len(sw.Entries), searchSpace)
			}
			for _, e := range sw.Entries {
				cycles += e.Cycles
			}
			points += int64(sw.Evaluated)
			evaluated = append(evaluated, float64(sw.Evaluated))
			totals.add(m.CacheStats())
			if req%8 == 0 {
				kept[req] = sw
			}
			return nil
		}
	}
	loop := timedLoop(ctx, cfg, reset, do)
	out := &outcome{setups: setups, lat: loop.lat, window: loop.window, cycles: cycles,
		attempted: loop.attempted, failed: loop.failed, allocMB: loop.allocMB}
	out.notes = append(out.notes, fmt.Sprintf("points simulated per sweep: %s; latencies (ms): %s",
		joinFloats(evaluated, "%.0f"), joinFloats(loop.lat, "%.0f")))

	// Re-run each kept sweep's winner and two shortlisted points with
	// exact stepping on a fresh machine.
	exact := searchOptions
	exact.Exact = true
	var checks []check
	var sample []smtbalance.Placement
	for req, sw := range kept {
		for _, idx := range []int{0, 1, len(sw.Entries) / 2} {
			e := sw.Entries[idx]
			sample = append(sample, e.Placement)
			checks = append(checks, check{fmt.Sprintf("search request %d entry %d", req, idx), func() ([]string, error) {
				m, err := smtbalance.NewMachine(&exact)
				if err != nil {
					return nil, err
				}
				r, err := m.Run(ctx, st.jobs[req%searchPool], e.Placement)
				if err != nil {
					return nil, err
				}
				return diffEntry(e, r), nil
			}})
		}
	}
	var bad int
	out.checked, bad = runChecks(checks, cfg.nproc)
	out.failed += bad

	if !cfg.trace {
		return out, nil
	}
	out.layers = map[string]float64{"serve.shed": 0, "serve.late_p90_ms": 0}
	if len(sample) == 0 {
		return nil, fmt.Errorf("traced window kept no sweep to probe")
	}
	in := probeInput{jobs: st.specs[:4], opts: searchOptions, pls: sample}
	if err := probeLayers(ctx, cfg, in, out.layers); err != nil {
		return nil, err
	}
	totals.report(out.layers)
	out.layers["sweep.points_simulated"] = float64(points) / float64(len(loop.lat))
	// Attribution: the coarse level costs one screen per request; the
	// fine level ticks the simulated points' cycles that phase-skip did
	// not skip, spread over the worker pool.
	layerNs := out.layers["sweep.screen_ms"]*1e6*float64(len(loop.lat)) +
		float64(cycles)*out.layers["mpisim.ticked_share"]*out.layers["mpisim.ns_per_ticked_cycle"]/float64(cfg.nproc)
	out.layers["attrib.gap_share"] = 1 - layerNs/(sum(loop.lat)*1e6)
	return out, finishTrace(cfg, out, loop)
}
