// Dynamic-balancer deep dive: watch the online OS-level balancer (the
// paper's Section VIII proposal) react iteration by iteration as an
// application's bottleneck migrates between the two ranks of a core.
// Every barrier release prints the per-rank computation times the
// balancer samples and the improvement it extracts.
package main

import (
	"context"
	"fmt"
	"log"

	smtbalance "repro"
)

const (
	iterations = 32
	block      = 8 // bottleneck flips sides every 8 iterations
	lightLoad  = 12_000
	heavyLoad  = 36_000
)

func job() smtbalance.Job {
	j := smtbalance.Job{Name: "migrating"}
	for r := 0; r < 2; r++ {
		var prog []smtbalance.Phase
		for i := 0; i < iterations; i++ {
			n := int64(lightLoad)
			heavySide := (i / block) % 2 // which rank is heavy now
			if r == heavySide {
				n = heavyLoad
			}
			// The "branchy" kernel has a real application's priority
			// profile (~12% per step); the synthetic "fpu" stressor
			// would punish every mis-prediction of the bottleneck with
			// a 2-4x slowdown — the paper's Case D lesson.
			prog = append(prog, smtbalance.Compute("branchy", n), smtbalance.Barrier())
		}
		j.Ranks = append(j.Ranks, prog)
	}
	return j
}

func main() {
	ctx := context.Background()
	j := job()
	pl := smtbalance.PinInOrder(2) // both ranks on core 0

	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		log.Fatal(err)
	}
	base, err := m.Run(ctx, j, pl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without balancing: %8.1fµs, imbalance %5.1f%%\n\n",
		base.Seconds*1e6, base.ImbalancePct)

	fmt.Println("iter  comp(P1)  comp(P2)  heavier")
	dm, err := smtbalance.NewMachine(&smtbalance.Options{
		Policy: &smtbalance.PaperDynamic{MaxDiff: 1},
		OnIteration: func(it smtbalance.IterationStats) {
			heavier := "P1"
			if it.ComputeCycles[1] > it.ComputeCycles[0] {
				heavier = "P2"
			}
			fmt.Printf("%4d  %8d  %8d  %s\n",
				it.Index, it.ComputeCycles[0], it.ComputeCycles[1], heavier)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := dm.Run(ctx, j, pl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith dynamic balancing: %8.1fµs, imbalance %5.1f%%, %d priority moves\n",
		dyn.Seconds*1e6, dyn.ImbalancePct, dyn.BalancerMoves)
	fmt.Printf("improvement: %+.1f%%\n", 100*(base.Seconds-dyn.Seconds)/base.Seconds)
	fmt.Println(dyn.Timeline(90))
}
