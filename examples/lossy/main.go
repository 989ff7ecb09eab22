// Lossy-network deployment: what happens to the distributed protocol when
// the network drops messages? This example injects increasing loss rates
// into the phase sweep (the final commitment barrier stays reliable) and
// shows the two operational takeaways: feasibility never breaks, and
// running a handful of independent seeds (SolveBest) buys back most of the
// quality the loss costs.
package main

import (
	"fmt"
	"log"

	"dfl"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	inst, err := dfl.Uniform{M: 30, NC: 150}.Generate(21)
	if err != nil {
		return err
	}
	fmt.Println("instance:", dfl.Stats(inst))
	lb, err := dfl.LowerBound(inst)
	if err != nil {
		return err
	}

	fmt.Println("\nloss rate   single run        best of 5")
	for _, loss := range []float64{0, 0.1, 0.25, 0.5} {
		// A drop rate with no DropUntilRound window applies to the phase
		// sweep only.
		lossy := dfl.FaultSchedule{DropProb: loss}
		single, _, err := dfl.SolveDistributed(inst, dfl.DistConfig{K: 16},
			dfl.WithSeed(1), dfl.WithFaults(lossy))
		if err != nil {
			return err
		}
		if err := dfl.Validate(inst, single); err != nil {
			return fmt.Errorf("loss %.0f%%: %w", loss*100, err)
		}
		best, _, err := dfl.SolveDistributedBest(inst, dfl.DistConfig{K: 16}, 1, 5,
			dfl.WithFaults(lossy))
		if err != nil {
			return err
		}
		fmt.Printf("%6.0f%%     ratio %.3f       ratio %.3f\n",
			loss*100,
			float64(single.Cost(inst))/float64(lb),
			float64(best.Cost(inst))/float64(lb))
	}
	fmt.Println("\nevery solution above validated — loss degrades cost, never feasibility")
	return nil
}
