// Command mtbalance reproduces the paper's experiments on the simulated
// POWER5 machine and prints paper-vs-measured tables.
//
// Usage:
//
//	mtbalance -experiment table4            # Table IV (MetBench, Figure 2)
//	mtbalance -experiment table5            # Table V (BT-MZ, Figure 3)
//	mtbalance -experiment table6            # Table VI (SIESTA, Figure 4)
//	mtbalance -experiment table2            # Table II (decode slots)
//	mtbalance -experiment table3            # Table III (priority 0/1 modes)
//	mtbalance -experiment figure1           # Figure 1 (illustrative)
//	mtbalance -experiment kernelpatch       # ablation: vanilla vs patched kernel
//	mtbalance -experiment dynamic           # extension: dynamic OS balancer
//	mtbalance -experiment extrinsic         # Section II-B: OS-noise imbalance
//	mtbalance -experiment scaling           # multi-chip scaling (1/2/4 chips)
//	mtbalance -experiment all               # everything
//
// Add -check to fail (exit 1) if any experiment loses the paper's shape,
// -traces to print the per-case timelines, -trace-dir to export every
// Tables IV–VI case's trace for external tools, and -scale to
// shrink/grow the workloads:
//
//	mtbalance -experiment table6 -trace-dir out  # out/table6-A.csv, out/table6-A.prv, ...
//
// Independent experiment cases fan out across a worker pool; -workers 1
// forces the old serial behavior.
//
// The run subcommand executes one job on a machine of any topology —
// -chips/-cores/-smt scale the node past the paper's single chip:
//
//	mtbalance run -chips 2 -ranks 20000,80000,20000,80000,20000,80000,20000,80000
//	mtbalance run -chips 2 -balance ...     # topology-aware static plan
//	mtbalance run -pin "0.0.0@4,0.0.1@6,0.1.0@4,0.1.1@6"
//
// The sweep subcommand searches the placement × priority space instead
// of replaying the paper's hand-picked cases, on any topology:
//
//	mtbalance sweep -workers 4 -top 10 -objective cycles
//	mtbalance sweep -chips 2                # pairs packed vs spread across L2s
//	mtbalance sweep -space os -objective weighted:1,0.5 -format csv
//
// The matrix subcommand evaluates every balancing policy on every
// synthetic imbalance scenario (ParseScenario shapes: uniform, ramp,
// step, phaseshift, bursty, bimodal) on every topology, scoring each
// policy by its speedup over the static control:
//
//	mtbalance matrix -scenarios 'uniform;ramp;bursty' -policies 'static;dyn;feedback'
//	mtbalance matrix -topologies '1x2x2;2x2x2' -format csv
//
// The serve subcommand exposes the simulator as an HTTP JSON API — one
// shared Machine, its result cache answering repeated configurations
// from memory, identical in-flight requests coalescing into one
// simulation, and (with -cache-dir) a persistent disk tier surviving
// restarts; load beyond the admission limits is shed with 429:
//
//	mtbalance serve -addr localhost:8080 -cache-dir /var/cache/mtbalance
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/run -d @job.json
//	curl -s -X POST localhost:8080/v1/matrix -d '{"scenarios":["ramp"],"policies":["static","dyn"]}'
//
// The loadtest subcommand drives a running server and reports
// throughput, latency percentiles, shed load, and the cache tiers'
// absorption (hits, coalesced, disk revivals):
//
//	mtbalance loadtest -url http://localhost:8080 -c 16 -duration 10s
//	mtbalance loadtest -url http://localhost:8080 -out report.json
//
// Run `mtbalance run -h` / `mtbalance sweep -h` / `mtbalance matrix -h`
// / `mtbalance serve -h` / `mtbalance loadtest -h` for the full flag
// lists.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		os.Exit(runSweep(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "run" {
		os.Exit(runRun(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "matrix" {
		os.Exit(runMatrix(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "loadtest" {
		os.Exit(runLoadtest(os.Args[2:]))
	}
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (table2, table3, table4, table5, table6, figure1, kernelpatch, dynamic, extrinsic, scaling, all)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		width      = flag.Int("width", 100, "timeline width in columns")
		traces     = flag.Bool("traces", false, "print per-case timelines (the paper's figures)")
		check      = flag.Bool("check", false, "verify the paper's shape and exit non-zero on violation")
		workers    = flag.Int("workers", 0, "concurrent simulator runs per experiment (0 = one per CPU, 1 = serial)")
		traceDir   = flag.String("trace-dir", "", "write each table4/5/6 case's trace as DIR/<experiment>-<case>.csv and .prv")
	)
	flag.Parse()

	ctx := context.Background()
	opt := experiments.Options{Scale: *scale, TraceWidth: *width, Workers: *workers}
	failed := 0
	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			failed++
		}
	}

	run("table2", func() error {
		rows, err := experiments.Table2(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable2(rows))
		if *check {
			return experiments.CheckTable2(rows)
		}
		return nil
	})
	run("table3", func() error {
		rows, err := experiments.Table3(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable3(rows))
		if *check {
			return experiments.CheckTable3(rows)
		}
		return nil
	})
	run("figure1", func() error {
		f, err := experiments.Figure1(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("Figure 1(a) — imbalanced application:")
		fmt.Println(f.ImbalancedTrace)
		fmt.Println("Figure 1(b) — bottleneck given more hardware resources:")
		fmt.Println(f.BalancedTrace)
		fmt.Printf("execution time: %s -> %s (%s)\n\n",
			metrics.Seconds(f.ImbalancedSeconds), metrics.Seconds(f.BalancedSeconds),
			metrics.Speedup(f.ImbalancedSeconds, f.BalancedSeconds))
		if *check {
			return experiments.CheckFigure1(f)
		}
		return nil
	})
	caseTable := func(name, title, ref string, gen func(context.Context, experiments.Options) ([]experiments.CaseResult, error),
		chk func([]experiments.CaseResult) error) func() error {
		return func() error {
			cases, err := gen(ctx, opt)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatCases(title, cases))
			fmt.Println(experiments.FormatSpeedups(cases, ref))
			if *traces {
				for _, c := range cases {
					fmt.Printf("case %s:\n%s\n", c.Case, c.TraceText)
				}
			}
			if *traceDir != "" {
				if err := writeTraces(*traceDir, name, cases); err != nil {
					return err
				}
			}
			if *check {
				return chk(cases)
			}
			return nil
		}
	}
	run("table4", caseTable("table4", "Table IV — MetBench (Figure 2)", "A", experiments.Table4, experiments.CheckTable4))
	run("table5", caseTable("table5", "Table V — BT-MZ (Figure 3)", "A", experiments.Table5, experiments.CheckTable5))
	run("table6", caseTable("table6", "Table VI — SIESTA (Figure 4)", "A", experiments.Table6, experiments.CheckTable6))
	run("kernelpatch", func() error {
		r, err := experiments.KernelPatchAblation(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("Kernel patch ablation (MetBench case C):")
		fmt.Printf("  patched kernel: %s (imbalance %s)\n",
			metrics.Seconds(r.PatchedSeconds), metrics.Pct(r.PatchedImbalance))
		fmt.Printf("  vanilla kernel: %s (imbalance %s) — interrupts reset the priorities\n\n",
			metrics.Seconds(r.VanillaSeconds), metrics.Pct(r.VanillaImbalance))
		if *check {
			return experiments.CheckKernelPatch(r)
		}
		return nil
	})
	run("extrinsic", func() error {
		r, err := experiments.ExtrinsicNoise(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("Extrinsic imbalance (Section II-B): a daemon bound to rank 0's CPU:")
		fmt.Printf("  clean run:          %s (imbalance %s)\n",
			metrics.Seconds(r.CleanSeconds), metrics.Pct(r.CleanImbalance))
		fmt.Printf("  with daemon:        %s (imbalance %s)\n",
			metrics.Seconds(r.NoisySeconds), metrics.Pct(r.NoisyImbalance))
		fmt.Printf("  victim favored +1:  %s (imbalance %s)\n\n",
			metrics.Seconds(r.CompensatedSeconds), metrics.Pct(r.CompensatedImbalance))
		if *check {
			return experiments.CheckExtrinsic(r)
		}
		return nil
	})
	run("scaling", func() error {
		rows, err := experiments.Scaling(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatScaling(rows))
		if *check {
			return experiments.CheckScaling(rows)
		}
		return nil
	})
	run("dynamic", func() error {
		r, err := experiments.DynamicExtension(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("Dynamic OS-level balancer (SIESTA with moving bottleneck):")
		fmt.Printf("  no balancing:       %s\n", metrics.Seconds(r.ReferenceSeconds))
		fmt.Printf("  static best (C):    %s\n", metrics.Seconds(r.StaticSeconds))
		fmt.Printf("  dynamic balancer:   %s (%d priority moves)\n\n",
			metrics.Seconds(r.DynamicSeconds), r.Moves)
		if *check {
			return experiments.CheckDynamic(r)
		}
		return nil
	})

	known := map[string]bool{"table2": true, "table3": true, "table4": true, "table5": true,
		"table6": true, "figure1": true, "kernelpatch": true, "dynamic": true,
		"extrinsic": true, "scaling": true, "all": true}
	if !known[*experiment] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeTraces exports each case's interval trace as
// dir/<experiment>-<case>.csv and .prv.
func writeTraces(dir, experiment string, cases []experiments.CaseResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range cases {
		base := filepath.Join(dir, experiment+"-"+c.Case)
		for _, out := range []struct {
			ext   string
			write func(io.Writer) error
		}{{".csv", c.Trace.WriteCSV}, {".prv", c.Trace.WritePRV}} {
			f, err := os.Create(base + out.ext)
			if err != nil {
				return err
			}
			err = out.write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
