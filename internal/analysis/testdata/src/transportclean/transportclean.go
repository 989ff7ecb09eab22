// Package transportclean stands in for a real-network adapter in the
// transport boundary golden test: its import path contains "transport" and
// its package doc declares the boundary, so dettaint must stay entirely
// silent even though every construct below would be a violation in
// protocol code.
//
//flvet:transport timers, deadlines and jitter are the point of an adapter
package transportclean

import (
	"math/rand"
	"time"
)

type config struct {
	Seed int64
}

func timers(ch, done chan int) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		select { // multi-case select: allowed behind the boundary
		case <-ch:
		case <-done:
			return
		}
	}
}

func jitter() time.Duration {
	return time.Duration(rand.Intn(5)) * time.Millisecond
}

func clockSeed() config {
	// Even a clock-seeded config is the adapter's own business: nothing
	// here is protocol state.
	return config{Seed: time.Now().UnixNano()}
}
