package smtbalance_test

import (
	"context"
	"fmt"
	"log"

	smtbalance "repro"
)

// The decode-cycle shares of Table II: a priority difference of 2 gives
// the favored thread 7 of every 8 decode cycles.
func ExampleDecodeShare() {
	a, b, err := smtbalance.DecodeShare(smtbalance.PriorityHigh, smtbalance.PriorityMedium)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("high vs medium: %.3f / %.3f\n", a, b)
	a, b, _ = smtbalance.DecodeShare(smtbalance.PriorityHigh, smtbalance.PriorityLow)
	fmt.Printf("high vs low:    %.4f / %.4f\n", a, b)
	// Output:
	// high vs medium: 0.875 / 0.125
	// high vs low:    0.9688 / 0.0312
}

// Only priorities 2-4 are reachable from user space; the paper patches
// the kernel to expose 1, 5 and 6 through /proc/<pid>/hmt_priority.
func ExampleUserSettable() {
	fmt.Println(smtbalance.UserSettable(smtbalance.PriorityMedium))
	fmt.Println(smtbalance.UserSettable(smtbalance.PriorityHigh))
	fmt.Println(smtbalance.OSSettable(smtbalance.PriorityHigh))
	// Output:
	// true
	// false
	// true
}

// Balancing an imbalanced job: favoring the heavy rank of each core
// shortens the run and shrinks the imbalance metric.
func ExampleMachine_Run() {
	job := smtbalance.Job{Name: "demo", Ranks: [][]smtbalance.Phase{
		{smtbalance.Compute("fpu", 20_000), smtbalance.Barrier()},
		{smtbalance.Compute("fpu", 90_000), smtbalance.Barrier()},
		{smtbalance.Compute("fpu", 20_000), smtbalance.Barrier()},
		{smtbalance.Compute("fpu", 90_000), smtbalance.Barrier()},
	}}
	ctx := context.Background()
	m, err := smtbalance.NewMachine(&smtbalance.Options{NoOSNoise: true})
	if err != nil {
		log.Fatal(err)
	}
	base, err := m.Run(ctx, job, smtbalance.PinInOrder(4))
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := m.Run(ctx, job, smtbalance.Placement{
		CPU: []int{0, 1, 2, 3},
		Priority: []smtbalance.Priority{
			smtbalance.PriorityMedium, smtbalance.PriorityHigh,
			smtbalance.PriorityMedium, smtbalance.PriorityHigh,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("balancing helped:", tuned.Cycles < base.Cycles)
	fmt.Println("imbalance reduced:", tuned.ImbalancePct < base.ImbalancePct)
	// Output:
	// balancing helped: true
	// imbalance reduced: true
}

// The static planner pairs heavy with light ranks and picks priorities
// from the decode-share model — the paper's hand procedure, automated.
func ExampleTopology_SuggestPlacement() {
	pl, err := smtbalance.DefaultTopology().SuggestPlacement([]float64{18, 24, 67, 100})
	if err != nil {
		log.Fatal(err)
	}
	for r := range pl.CPU {
		fmt.Printf("rank %d -> cpu %d, priority %v\n", r, pl.CPU[r], pl.Priority[r])
	}
	// Output:
	// rank 0 -> cpu 1, priority medium
	// rank 1 -> cpu 3, priority medium
	// rank 2 -> cpu 2, priority medium-high
	// rank 3 -> cpu 0, priority medium-high
}
