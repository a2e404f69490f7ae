// BT-MZ example: the paper's Section VII-B experiment — a multi-zone
// solver whose zones have very different sizes (intrinsic imbalance), with
// per-iteration neighbour exchanges.  Instead of hand-picking the
// placement and priorities as the paper did, this example lets the
// library's static planner derive them from the per-rank work — and then
// verifies the plan beats the naive run.
package main

import (
	"context"
	"fmt"
	"log"

	smtbalance "repro"
)

// Zone weights from the paper's Table V computation shares.
var zoneWeights = []float64{0.18, 0.24, 0.67, 1.00}

const (
	unitLoad   = 220_000
	iterations = 6
	exchangeKB = 16
)

func job() smtbalance.Job {
	j := smtbalance.Job{Name: "bt-mz"}
	n := len(zoneWeights)
	for r := 0; r < n; r++ {
		var prog []smtbalance.Phase
		work := int64(zoneWeights[r] * unitLoad)
		for i := 0; i < iterations; i++ {
			prog = append(prog,
				smtbalance.Compute("fpu", work),
				// Boundary exchange with the neighbouring zones.
				smtbalance.Exchange(exchangeKB<<10, (r+n-1)%n, (r+1)%n),
			)
		}
		prog = append(prog, smtbalance.Barrier())
		j.Ranks = append(j.Ranks, prog)
	}
	return j
}

func main() {
	ctx := context.Background()
	j := job()
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		log.Fatal(err)
	}

	naive, err := m.Run(ctx, j, smtbalance.PinInOrder(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive placement:   %7.1fµs, imbalance %5.1f%%\n",
		naive.Seconds*1e6, naive.ImbalancePct)
	fmt.Println(naive.Timeline(84))

	// Let the planner pair heavy with light zones and pick priorities.
	works := make([]float64, len(zoneWeights))
	for i, z := range zoneWeights {
		works[i] = z * unitLoad
	}
	plan, err := m.Topology().SuggestPlacement(works)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("planned placement: ")
	for r := range plan.CPU {
		fmt.Printf("P%d->cpu%d@%d ", r+1, plan.CPU[r], plan.Priority[r])
	}
	fmt.Println()

	planned, err := m.Run(ctx, j, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned result:    %7.1fµs, imbalance %5.1f%%  (%+.1f%% vs naive)\n",
		planned.Seconds*1e6, planned.ImbalancePct,
		100*(naive.Seconds-planned.Seconds)/naive.Seconds)
	fmt.Println(planned.Timeline(84))
}
