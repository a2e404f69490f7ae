// Command mettrace runs one application case on the simulated machine and
// renders its timeline — regenerating individual panels of the paper's
// Figures 2-4 — or exports the trace for external tools.
//
// Usage:
//
//	mettrace -app metbench -case C              # Figure 2(c)
//	mettrace -app btmz -case D -width 120       # Figure 3(d)
//	mettrace -app siesta -case A -csv trace.csv # export CSV
//	mettrace -app siesta -case B -prv trace.prv # export PARAVER-style
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/apps/btmz"
	"repro/internal/apps/metbench"
	"repro/internal/apps/siesta"
	"repro/internal/metrics"
	"repro/internal/mpisim"
)

func main() {
	var (
		app      = flag.String("app", "metbench", "application: metbench, btmz, siesta")
		caseName = flag.String("case", "A", "experiment case: ST (btmz/siesta only), A, B, C, D")
		width    = flag.Int("width", 100, "timeline width in columns")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		csvPath  = flag.String("csv", "", "write the interval trace as CSV to this file")
		prvPath  = flag.String("prv", "", "write a PARAVER-style .prv trace to this file")
	)
	flag.Parse()

	job, pl, err := build(*app, *caseName, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := mpisim.RunCtx(context.Background(), job, pl, mpisim.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s case %s: exec %s, imbalance %s\n",
		*app, *caseName, metrics.Seconds(res.Seconds), metrics.Pct(res.Imbalance))
	fmt.Println(res.Trace.Render(*width))
	for i, rr := range res.Ranks {
		fmt.Printf("P%d: CPU%d core%d prio %d  comp %6.2f%%  sync %6.2f%%  comm %5.2f%%\n",
			i+1, rr.CPU, rr.Core+1, rr.Prio, rr.ComputePct, rr.SyncPct, rr.CommPct)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, res, false); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *prvPath != "" {
		if err := writeFile(*prvPath, res, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func scaleN(n int64, s float64) int64 {
	v := int64(float64(n) * s)
	if v < 1 {
		v = 1
	}
	return v
}

func build(app, caseName string, scale float64) (*mpisim.Job, mpisim.Placement, error) {
	switch app {
	case "metbench":
		cfg := metbench.DefaultConfig()
		cfg.HeavyLoad = scaleN(cfg.HeavyLoad, scale)
		cfg.LightLoad = scaleN(cfg.LightLoad, scale)
		pl, err := metbench.Placement(metbench.Case(caseName))
		if err != nil {
			return nil, mpisim.Placement{}, err
		}
		return metbench.Job(cfg), pl, nil
	case "btmz":
		cfg := btmz.DefaultConfig()
		if caseName == "ST" {
			cfg = btmz.STConfig()
		}
		cfg.UnitLoad = scaleN(cfg.UnitLoad, scale)
		pl, err := btmz.Placement(btmz.Case(caseName))
		if err != nil {
			return nil, mpisim.Placement{}, err
		}
		return btmz.Job(cfg), pl, nil
	case "siesta":
		cfg := siesta.DefaultConfig()
		if caseName == "ST" {
			cfg = siesta.STConfig()
		}
		cfg.UnitLoad = scaleN(cfg.UnitLoad, scale)
		cfg.InitLoad = scaleN(cfg.InitLoad, scale)
		cfg.FinalLoad = scaleN(cfg.FinalLoad, scale)
		pl, err := siesta.Placement(siesta.Case(caseName))
		if err != nil {
			return nil, mpisim.Placement{}, err
		}
		return siesta.Job(cfg), pl, nil
	default:
		return nil, mpisim.Placement{}, fmt.Errorf("unknown app %q (want metbench, btmz, siesta)", app)
	}
}

func writeFile(path string, res *mpisim.Result, prv bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if prv {
		return res.Trace.WritePRV(f)
	}
	return res.Trace.WriteCSV(f)
}
