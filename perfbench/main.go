// Command perfbench is the repository's benchmark.  It drives three
// seeded workloads through the public entry points (smtbalance.Machine
// and serve.NewHandler), checks every answer, and prints the end-to-end
// metrics — or, with -trace 1, the per-layer metrics — as the last line
// of its output:
//
//	bash perfbench/run.sh --workload paper-run --seed 1 --seconds 20 --trace 0
//
// -repeat N runs the workloads alternately N times in child processes
// and prints each metric's median and quartiles next to its bound.  See
// perfbench/README.md for the workloads, the metrics and the findings.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	smtbalance "repro"
)

// Seeds used while the bounds in BENCHMARK.json were set, and the seed
// held back to check a claimed gain on inputs nobody tuned against.
const (
	boundSeeds    = "1-10"
	heldBackSeed  = 9001
	setupRepeats  = 5 // set-ups per run; setup_s is their median
	serveRateFlag = "serve-rate"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	serveRate float64 // serve-mix requests per second
	buildDir  string  // scratch space for temp dirs and span files
	commit    string
	nproc     int
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome is what one workload run measured.
type outcome struct {
	setups    []float64 // seconds per set-up
	lat       []float64 // request latencies, ms
	window    float64   // seconds the timed loop ran
	cycles    int64     // simulated cycles delivered in the window
	attempted int
	failed    int                // errors, 429s and answers that failed verification
	checked   int                // answers re-verified after the window
	allocMB   float64            // MB the process allocated in the window
	layers    map[string]float64 // per-layer metrics (traced runs)
	notes     []string           // findings printed with the report
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workloadDef{
	{"paper-run", "one cold Machine.Run per request in the paper's environment: the power5 cycle loop with OS ticks", runPaper},
	{"search", "one screened 486-point sweep per request on 2x2x2 without OS ticks: predictor, pool, phase-skip", runSearch},
	{"serve-mix", "open-loop HTTP mix of warm-cache hits and cold runs: gate, codec, cache tiers carry p50, simulator p90", runServe},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits gives every per-layer metric its unit; the traced run
// reports exactly these names.
var layerUnits = map[string]string{
	"hwpri.alloc_ns":               "ns",
	"workload.next_ns":             "ns",
	"branch.predict_ns":            "ns",
	"mem.load_l1_ns":               "ns",
	"mem.load_l2_ns":               "ns",
	"mem.load_beyond_l3_ns":        "ns",
	"power5.cycle_ns":              "ns",
	"oskernel.tick_overhead_share": "ratio",
	"mpisim.ticked_share":          "ratio",
	"mpisim.ns_per_ticked_cycle":   "ns",
	"mpisim.run_ms":                "ms",
	"core.predict_ns":              "ns",
	"sweep.screen_ms":              "ms",
	"sweep.points_simulated":       "count",
	"sweep.pool_idle_share":        "ratio",
	"cache.hit_us":                 "us",
	"cache.revive_us":              "us",
	"diskcache.get_us":             "us",
	"diskcache.put_us":             "us",
	"cache.hits":                   "count",
	"cache.coalesced":              "count",
	"cache.disk_hits":              "count",
	"cache.sims":                   "count",
	"serve.handler_us":             "us",
	"serve.alloc_kb_per_req":       "KiB",
	"serve.shed":                   "count",
	"serve.late_p90_ms":            "ms",
	"attrib.gap_share":             "ratio",
	"trace.overhead_share":         "ratio",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-run, search or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	rate := fs.Float64(serveRateFlag, 20, "serve-mix open-loop request rate (1/s)")
	buildDir := fs.String("build-dir", ".bench_build", "directory for temp files and span dumps")
	commit := fs.String("commit", "unknown", "commit the binary was built from")
	repeat := fs.Int("repeat", 0, "run every workload alternately this many times in child processes and print the spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload:  *name,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *traceFlag == 1,
		serveRate: *rate,
		buildDir:  *buildDir,
		commit:    *commit,
		nproc:     runtime.NumCPU(),
	}
	if cfg.seconds <= 0 || cfg.serveRate <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds and -serve-rate must be positive, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *repeat > 0 {
		return repeatMode(cfg, *repeat, stdout)
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper-run, search or serve-mix)\n", cfg.workload)
		return 2
	}
	facts := machineFacts(cfg)
	fmt.Fprintf(stdout, "perfbench %s: %s\n", w.name, w.why)
	fmt.Fprintf(stdout, "facts %s\n", mustJSON(facts))

	out, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := summarize(cfg, out)
	printReport(stdout, cfg, out, res)
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// summarize turns an outcome into the result line: the end-to-end
// metrics for an untraced run, the per-layer metrics for a traced one.
func summarize(cfg config, out *outcome) result {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0 && len(out.lat) > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	if cfg.trace {
		for name, unit := range layerUnits {
			v, ok := out.layers[name]
			if !ok {
				v = math.NaN()
				res.Correct = false // a layer the traced run failed to measure
			}
			res.Metrics[name] = metric{Value: v, Unit: unit}
		}
		return res
	}
	res.Metrics["setup_s"] = metric{median(out.setups), "s"}
	res.Metrics["req_p50_ms"] = metric{percentile(out.lat, 50), "ms"}
	res.Metrics["req_p90_ms"] = metric{percentile(out.lat, 90), "ms"}
	res.Metrics["req_per_s"] = metric{float64(len(out.lat)) / out.window, "1/s"}
	res.Metrics["sim_mcycles_per_s"] = metric{float64(out.cycles) / out.window / 1e6, "Mcycles/s"}
	res.Metrics["alloc_mb_per_req"] = metric{out.allocMB / float64(len(out.lat)), "MB"}
	return res
}

// printReport writes the human-readable report that precedes the result
// line: every metric by name and unit, the sample counts, the failure
// share and the workload's findings.
func printReport(w io.Writer, cfg config, out *outcome, res result) {
	fmt.Fprintf(w, "window %.2fs, %d requests attempted, %d failed (fail_share %.4f), %d answers re-verified, %d latency samples\n",
		out.window, out.attempted, out.failed, float64(out.failed)/math.Max(1, float64(out.attempted)), out.checked, len(out.lat))
	if !cfg.trace {
		fmt.Fprintf(w, "set-ups (s): %s\n", joinFloats(out.setups, "%.4f"))
		beyond := len(out.lat) - int(math.Ceil(0.9*float64(len(out.lat))))
		fmt.Fprintf(w, "samples beyond p90: %d\n", beyond)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are encoded
	}
	return string(data)
}

// machineFacts records the machine and the run settings next to every
// report, so a number can be traced back to where it was measured.
func machineFacts(cfg config) map[string]any {
	return map[string]any{
		"nproc":           cfg.nproc,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"cpu":             cpuModel(),
		"commit":          cfg.commit,
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"window_s":        cfg.seconds,
		"trace":           cfg.trace,
		"serve_rate":      cfg.serveRate,
		"bound_seeds":     boundSeeds,
		"held_back_seed":  heldBackSeed,
		"setups_per_run":  setupRepeats,
		"os_arch":         runtime.GOOS + "/" + runtime.GOARCH,
		"started_unix_ms": time.Now().UnixMilli(),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeSetups runs setup setupRepeats times, keeping only the last
// state (earlier ones are torn down), and returns each duration.
func timeSetups[S any](setup func() (S, error), teardown func(S)) (S, []float64, error) {
	var st S
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			var zero S
			return zero, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, times, nil
}

// closedLoop sends one request at a time for d: each call to do starts
// when the previous one returned.  It returns the latencies (ms), the
// number attempted and failed, and the window's true length.
func closedLoop(ctx context.Context, d time.Duration, tr *tracer, do func(ctx context.Context, req, span int) error) (lat []float64, attempted, failed int, window float64) {
	start := time.Now()
	for req := 0; time.Since(start) < d; req++ {
		sp := tr.begin("request", -1, req)
		t0 := time.Now()
		err := do(ctx, req, sp)
		el := time.Since(t0)
		tr.end(sp)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", req, err)
			continue
		}
		lat = append(lat, float64(el.Nanoseconds())/1e6)
	}
	return lat, attempted, failed, time.Since(start).Seconds()
}

// allocatedMB is what the process has allocated on the heap since it
// started, in MB.  The program is deterministic, so the difference over
// a window is a count of its work, not a timing.
func allocatedMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// tempDir makes a private directory under the build dir.
func tempDir(cfg config, pattern string) (string, error) {
	dir, err := os.MkdirTemp(cfg.buildDir, pattern)
	if err != nil {
		return "", fmt.Errorf("temp dir: %w", err)
	}
	return dir, nil
}

// writeSpans stores the traced run's spans next to the build outputs.
func writeSpans(cfg config, tr *tracer) (string, error) {
	path := filepath.Join(cfg.buildDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// parallel calls fn(0..n-1) on up to workers goroutines, waits for all
// of them and returns every error joined.
func parallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// loopRun is a closed-loop workload's timed window.
type loopRun struct {
	lat         []float64
	attempted   int
	failed      int
	window      float64
	allocMB     float64 // untraced runs only: MB allocated in the window
	tr          *tracer // traced runs only
	untracedP50 float64 // traced runs only: the untraced half's median
}

// timedLoop runs the closed loop over the window.  A traced run splits
// the window: the first half runs untraced, reset clears the workload's
// counters, and the second half records spans, so the tracing overhead
// is the traced median over the untraced one.
func timedLoop(ctx context.Context, cfg config, reset func(), do func(tr *tracer) func(context.Context, int, int) error) loopRun {
	if !cfg.trace {
		a0 := allocatedMB()
		lat, attempted, failed, window := closedLoop(ctx, cfg.window(), nil, do(nil))
		return loopRun{lat: lat, attempted: attempted, failed: failed, window: window, allocMB: allocatedMB() - a0}
	}
	half := cfg.window() / 2
	untraced, _, _, _ := closedLoop(ctx, half, nil, do(nil))
	reset()
	tr := newTracer()
	lat, attempted, failed, window := closedLoop(ctx, half, tr, do(tr))
	return loopRun{lat: lat, attempted: attempted, failed: failed, window: window, tr: tr, untracedP50: median(untraced)}
}

// cacheTotals accumulates result-cache counters over a window.
type cacheTotals struct{ hits, coalesced, diskHits, sims int64 }

// add counts one machine's statistics (or a delta of them); every miss
// that was neither coalesced nor revived from disk ran the simulator.
func (c *cacheTotals) add(s smtbalance.CacheStats) {
	c.hits += s.Hits
	c.coalesced += s.Coalesced
	c.diskHits += s.DiskHits
	c.sims += s.Misses - s.Coalesced - s.DiskHits
}

func (c cacheTotals) report(layers map[string]float64) {
	layers["cache.hits"] = float64(c.hits)
	layers["cache.coalesced"] = float64(c.coalesced)
	layers["cache.disk_hits"] = float64(c.diskHits)
	layers["cache.sims"] = float64(c.sims)
}

// finishTrace records the tracing overhead, the spans' self times and
// the span dump of a traced closed-loop run.
func finishTrace(cfg config, out *outcome, loop loopRun) error {
	out.layers["trace.overhead_share"] = (median(loop.lat) - loop.untracedP50) / loop.untracedP50
	return noteSpans(cfg, out, loop.tr)
}

// noteSpans writes the span dump and notes each span's self time.
func noteSpans(cfg config, out *outcome, tr *tracer) error {
	path, err := writeSpans(cfg, tr)
	if err != nil {
		return err
	}
	self := tr.selfTimes()
	for _, n := range sortedKeys(self) {
		out.notes = append(out.notes, fmt.Sprintf("span %s self time %.1f ms", n, self[n]))
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans written to %s", tr.count(), path))
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
