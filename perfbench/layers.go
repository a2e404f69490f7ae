package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	smtbalance "repro"
	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mpisim"
	"repro/internal/oskernel"
	"repro/internal/power5"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The traced run times calls into each layer's public functions on the
// inputs the workload generated.  Sub-millisecond operations are timed
// in batches (nsPerOp) and reported only here, never as end-to-end
// metrics: a single call is too short to time steadily on a shared host.

// sink keeps the compiler from discarding probed calls.
var sink int64

// probeInput is what a workload hands the layer probes: its jobs, its
// simulation environment and the placements it runs them at.
type probeInput struct {
	jobs []jobSpec
	opts smtbalance.Options
	pls  []smtbalance.Placement
}

func (in probeInput) topo() power5.Topology {
	t := in.opts.Topology
	if t == (smtbalance.Topology{}) {
		t = smtbalance.DefaultTopology()
	}
	return power5.Topology{Chips: t.Chips, CoresPerChip: t.CoresPerChip, SMTWays: t.SMTWays}
}

func (in probeInput) kernel() oskernel.Config {
	k := oskernel.DefaultConfig()
	k.Patched = !in.opts.VanillaKernel
	if in.opts.NoOSNoise {
		k.TickPeriod = 0
	}
	return k
}

func prios(pl smtbalance.Placement) []hwpri.Priority {
	out := make([]hwpri.Priority, len(pl.Priority))
	for i, p := range pl.Priority {
		out[i] = hwpri.Priority(p)
	}
	return out
}

// nsPerOp calls fn(batch) until 20 ms have passed, five times over, and
// returns the median of the five rounds' nanoseconds per operation.
func nsPerOp(batch int, fn func(n int)) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		ops := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			fn(batch)
			ops += batch
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(rounds)
}

// probeLayers fills layers with every per-layer metric the probes
// measure; the workload adds the window-derived ones.
func probeLayers(ctx context.Context, cfg config, in probeInput, layers map[string]float64) error {
	steps := []func() error{
		func() error { return probeStreams(cfg, in, layers) },
		func() error { return probeCycle(in, layers) },
		func() error { return probeMPISim(ctx, in, layers) },
		func() error { return probeSweep(ctx, in, cfg.nproc, layers) },
		func() error { return probeCache(ctx, cfg, in, layers) },
		func() error { return probeServe(in, layers) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// probeStreams times the per-instruction stream layers: priority
// arbitration, instruction generation, branch prediction and the memory
// hierarchy.
func probeStreams(cfg config, in probeInput, layers map[string]float64) error {
	// hwpri: the priority pairs the workload's placements put on each core.
	var pairs [][2]hwpri.Priority
	for _, pl := range in.pls {
		onCPU := map[int]hwpri.Priority{}
		for r, cpu := range pl.CPU {
			onCPU[cpu] = hwpri.Priority(pl.Priority[r])
		}
		for cpu, p := range onCPU {
			sib, ok := onCPU[cpu^1]
			if !ok {
				sib = hwpri.VeryLow // the kernel idles an empty sibling at very low priority
			}
			if cpu%2 == 0 || !ok {
				pairs = append(pairs, [2]hwpri.Priority{p, sib})
			}
		}
	}
	layers["hwpri.alloc_ns"] = nsPerOp(1024, func(n int) {
		for i := 0; i < n; i++ {
			p := pairs[i%len(pairs)]
			al := hwpri.Alloc(p[0], p[1])
			sink += int64(al.Owner(int64(i), [2]bool{}))
		}
	})

	// workload: the job's kernels with the bases and seeds a run uses.
	loads := in.jobs[0].loads()
	gens := make([]*workload.Gen, len(loads))
	for i, l := range loads {
		gens[i] = workload.NewGen(l)
	}
	var ins isa.Instr
	k := 0
	layers["workload.next_ns"] = nsPerOp(4096, func(n int) {
		for i := 0; i < n; i++ {
			if !gens[k].Next(&ins) {
				gens[k].Reset()
				k = (k + 1) % len(gens)
			}
		}
	})

	// branch: the branches those kernels emit, per hardware thread.
	type br struct {
		pc    uint32
		taken bool
		ctx   int
	}
	var brs []br
	for i, l := range loads {
		g := workload.NewGen(l)
		for j := 0; j < 50_000 && g.Next(&ins); j++ {
			if ins.Op == isa.Branch {
				brs = append(brs, br{ins.PC, ins.Taken, i % 2})
			}
		}
	}
	bp := branch.New(power5.DefaultConfig().BranchBits)
	layers["branch.predict_ns"] = nsPerOp(len(brs), func(n int) {
		for i := 0; i < n; i++ {
			b := brs[i%len(brs)]
			if bp.Predict(b.ctx, b.pc, b.taken) {
				sink++
			}
		}
	})

	// mem: the L1 and L2 kernels' load addresses, replayed after a warm-up
	// pass; beyond the L3, a million random lines over 32 times its size,
	// so that nearly every timed load misses the L3 and pays the memory
	// path.  The L3's counters confirm it.
	l3 := mem.DefaultHierConfig(2).L3
	for _, fp := range []struct {
		name  string
		load  workload.Load
		loads int
	}{
		{"mem.load_l1_ns", workload.Load{Kind: workload.L1}, 1 << 16},
		{"mem.load_l2_ns", workload.Load{Kind: workload.L2}, 1 << 16},
		{"mem.load_beyond_l3_ns", workload.Load{Kind: workload.Mem, Footprint: 32 * int64(l3.SizeBytes)}, 1 << 20},
	} {
		fp.load.Base, fp.load.Seed = 1<<36, cfg.seed
		g := workload.NewGen(fp.load)
		var addrs []uint64
		for len(addrs) < fp.loads && g.Next(&ins) {
			if ins.Op == isa.Load {
				addrs = append(addrs, ins.Addr)
			}
		}
		h, err := mem.NewHierarchy(mem.DefaultHierConfig(2))
		if err != nil {
			return err
		}
		for _, a := range addrs {
			h.LoadLatency(0, a)
		}
		before, timed, k := h.L3().Stats(), 0, 0
		layers[fp.name] = nsPerOp(4096, func(n int) {
			for i := 0; i < n; i++ {
				sink += int64(h.LoadLatency(0, addrs[k]))
				k = (k + 1) % len(addrs)
			}
			timed += n
		})
		if fp.load.Kind == workload.Mem {
			if miss := float64(h.L3().Stats().Misses-before.Misses) / float64(timed); miss < 0.9 {
				return fmt.Errorf("mem probe: only %.2f of the beyond-L3 loads missed the L3", miss)
			}
		}
	}
	return nil
}

// probeCycle times the power5 machine's cycle with the workload's
// kernels pinned as its placement pins them, once driven directly and
// once under the simulated OS kernel; the difference is the kernel's
// share (ticks, idle loops and the per-CPU stream wrapper).
func probeCycle(in probeInput, layers map[string]float64) error {
	topo := in.topo()
	pl := in.pls[0]
	first := in.jobs[0].firstLoads()
	perCycle := func(withKernel bool) (float64, error) {
		mach, err := power5.NewMachine(topo, power5.DefaultConfig())
		if err != nil {
			return 0, err
		}
		if withKernel {
			k := oskernel.NewMachine(mach, in.kernel())
			for r, l := range first {
				if _, err := k.Spawn(fmt.Sprintf("rank%d", r), pl.CPU[r], workload.NewGen(l), hwpri.Priority(pl.Priority[r])); err != nil {
					return 0, err
				}
			}
		} else {
			for r, l := range first {
				core, thr := topo.CoreOf(pl.CPU[r]), topo.ThreadOf(pl.CPU[r])
				mach.SetStream(core, thr, workload.NewGen(l))
				mach.SetPriority(core, thr, hwpri.Priority(pl.Priority[r]))
			}
		}
		mach.Run(20_000)
		var rounds []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			mach.Run(40_000)
			rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/40_000)
		}
		return median(rounds), nil
	}
	bare, err := perCycle(false)
	if err != nil {
		return fmt.Errorf("power5 probe: %w", err)
	}
	withKernel, err := perCycle(true)
	if err != nil {
		return fmt.Errorf("oskernel probe: %w", err)
	}
	layers["power5.cycle_ns"] = bare
	layers["oskernel.tick_overhead_share"] = (withKernel - bare) / withKernel
	return nil
}

// probeMPISim runs the workload's jobs through the MPI runtime directly
// and reports how much of the simulated time was ticked cycle by cycle.
func probeMPISim(ctx context.Context, in probeInput, layers map[string]float64) error {
	simCfg := mpisim.Config{Chip: power5.DefaultConfig(), Topology: in.topo(), Kernel: in.kernel(), KernelSet: true}
	var cycles, ticked int64
	var total time.Duration
	var runs []float64
	for i := 0; i < 4; i++ {
		job := in.jobs[i%len(in.jobs)]
		pl := in.pls[i%len(in.pls)]
		t0 := time.Now()
		r, err := mpisim.RunCtx(ctx, job.inner(), mpisim.Placement{CPU: pl.CPU, Prio: prios(pl)}, simCfg)
		if err != nil {
			return fmt.Errorf("mpisim probe: %w", err)
		}
		d := time.Since(t0)
		total += d
		runs = append(runs, float64(d.Nanoseconds())/1e6)
		cycles += r.Cycles
		ticked += r.Cycles - r.SkippedCycles
	}
	layers["mpisim.ticked_share"] = float64(ticked) / float64(cycles)
	layers["mpisim.ns_per_ticked_cycle"] = float64(total.Nanoseconds()) / float64(ticked)
	layers["mpisim.run_ms"] = median(runs)
	return nil
}

// probeSweep prices the coarse level (predictor and screen) apart from
// the fine level (one real screened sweep of the workload's first job).
func probeSweep(ctx context.Context, in probeInput, workers int, layers map[string]float64) error {
	topo := in.topo()
	job := in.jobs[0].inner()
	points, err := sweep.Enumerate(len(job.Ranks), sweep.Space{Topology: topo})
	if err != nil {
		return fmt.Errorf("sweep probe: %w", err)
	}
	pls := make([]mpisim.Placement, len(points))
	for i, pt := range points {
		pls[i] = pt.Placement()
	}
	loads := sweep.RankLoads(job)
	comm := mpisim.TopologyCommLatency(topo)
	model := core.DefaultModel()
	layers["core.predict_ns"] = nsPerOp(len(pls), func(n int) {
		for i := 0; i < n; i++ {
			pl := pls[i%len(pls)]
			sink += int64(model.PredictCycles(loads, pl.CPU, pl.Prio, comm))
		}
	})
	var screens []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		sink += int64(len(sweep.Screen(job, points, topo, searchScreen, sweep.GuardBand(len(points)), model)))
		screens = append(screens, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	screenMS := median(screens)
	layers["sweep.screen_ms"] = screenMS

	m, err := smtbalance.NewMachine(&in.opts)
	if err != nil {
		return err
	}
	var stamps []time.Time
	t0 := time.Now()
	sw, err := m.SweepAll(ctx, in.jobs[0].public(), smtbalance.UserSettableSpace(), &smtbalance.SweepOptions{
		Screen:   searchScreen,
		Workers:  workers,
		Progress: func(done, total int) { stamps = append(stamps, time.Now()) }, // calls are serialized
	})
	if err != nil {
		return fmt.Errorf("sweep probe: %w", err)
	}
	layers["sweep.points_simulated"] = float64(sw.Evaluated)
	layers["sweep.pool_idle_share"] = poolIdleShare(t0.Add(time.Duration(screenMS*1e6)), stamps, sw.Workers)
	return nil
}

// poolIdleShare estimates the worker pool's idle share from the sweep's
// completion timestamps: once the last point has been handed out, every
// completion but the final one leaves a worker idle until the sweep
// ends.  start is when the pool began (after screening).
func poolIdleShare(start time.Time, stamps []time.Time, workers int) float64 {
	n := len(stamps)
	if n == 0 || workers < 1 {
		return 0
	}
	last := stamps[n-1]
	wall := last.Sub(start).Seconds()
	if wall <= 0 {
		return 0
	}
	var idle float64
	for k := max(0, n-workers); k < n-1; k++ {
		idle += last.Sub(stamps[k]).Seconds()
	}
	return idle / (float64(workers) * wall)
}

// probeCache times the result cache's memory hits and disk revivals in
// batches of at least a thousand Machine.Run calls, and the disk tier's
// own Get and Put on a record the cache wrote.
func probeCache(ctx context.Context, cfg config, in probeInput, layers map[string]float64) error {
	dir, err := tempDir(cfg, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := smtbalance.NewMachine(&in.opts)
	if err != nil {
		return err
	}
	if err := m.UseDiskCache(dir); err != nil {
		return err
	}
	pl := in.pls[0]
	jobs := make([]smtbalance.Job, 0, 2)
	for i := 0; i < 2 && i < len(in.jobs); i++ {
		j := in.jobs[i].public()
		if _, err := m.Run(ctx, j, pl); err != nil {
			return fmt.Errorf("cache probe: %w", err)
		}
		jobs = append(jobs, j)
	}
	var runErr error
	layers["cache.hit_us"] = nsPerOp(1000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := m.Run(ctx, jobs[i%len(jobs)], pl); err != nil {
				runErr = err
			}
		}
	}) / 1e3
	var revive time.Duration
	const revives = 1000
	for i := 0; i < revives; i++ {
		m.ClearCache()
		t0 := time.Now()
		if _, err := m.Run(ctx, jobs[i%len(jobs)], pl); err != nil {
			runErr = err
		}
		revive += time.Since(t0)
	}
	if runErr != nil {
		return fmt.Errorf("cache probe: %w", runErr)
	}
	if st := m.CacheStats(); st.DiskHits < revives {
		return fmt.Errorf("cache probe: %d disk hits for %d revivals", st.DiskHits, revives)
	}
	layers["cache.revive_us"] = float64(revive.Nanoseconds()) / revives / 1e3

	var record []byte
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && record == nil && !d.IsDir() && strings.HasSuffix(p, "-run.json") {
			record, err = os.ReadFile(p)
		}
		return err
	})
	if err != nil || record == nil {
		return fmt.Errorf("cache probe: no disk record found (%v)", err)
	}
	store, err := diskcache.Open(dir, "probe")
	if err != nil {
		return err
	}
	const records = 1000
	t0 := time.Now()
	for i := 0; i < records; i++ {
		if err := store.Put(fmt.Sprintf("%040x", i), record); err != nil {
			return fmt.Errorf("diskcache probe: %w", err)
		}
	}
	layers["diskcache.put_us"] = float64(time.Since(t0).Nanoseconds()) / records / 1e3
	t0 = time.Now()
	for i := 0; i < records; i++ {
		if _, ok, err := store.Get(fmt.Sprintf("%040x", i)); err != nil || !ok {
			return fmt.Errorf("diskcache probe: record %d missing (%v)", i, err)
		}
	}
	layers["diskcache.get_us"] = float64(time.Since(t0).Nanoseconds()) / records / 1e3
	return nil
}

// probeServe times the HTTP handler alone — ServeHTTP into a recorder,
// no TCP — answering a warm /v1/run request, and its allocation per
// request.
func probeServe(in probeInput, layers map[string]float64) error {
	m, err := smtbalance.NewMachine(&in.opts)
	if err != nil {
		return err
	}
	h := serve.NewHandler(m, serve.Config{})
	body, err := json.Marshal(runRequest(in.jobs[0], in.pls[0]))
	if err != nil {
		return err
	}
	call := func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serve probe: status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	if err := call(); err != nil { // the first call simulates; the rest hit
		return err
	}
	var callErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	layers["serve.handler_us"] = nsPerOp(200, func(n int) {
		for i := 0; i < n; i++ {
			if err := call(); err != nil {
				callErr = err
			}
		}
		calls += n
	}) / 1e3
	runtime.ReadMemStats(&after)
	if callErr != nil {
		return callErr
	}
	layers["serve.alloc_kb_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(calls) / 1024
	return nil
}

// runRequest is the /v1/run body for a job at a placement.
func runRequest(job jobSpec, pl smtbalance.Placement) serve.RunRequest {
	p := &serve.Placement{CPUs: pl.CPU}
	for _, pr := range pl.Priority {
		p.Priorities = append(p.Priorities, int(pr))
	}
	return serve.RunRequest{Job: job.wire(), Placement: p}
}
