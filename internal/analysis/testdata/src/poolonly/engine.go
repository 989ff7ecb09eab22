package poolonly

func runRound(work func()) {
	go work() // want `bare go statement outside shard\.go`
	done := make(chan struct{})
	go func() { // want `bare go statement outside shard\.go`
		work()
		close(done)
	}()
	<-done
}

// stepRound is DESIGN.md §9's mutation P1: a goroutine and a channel
// wrapped around one synchronous call. The result is unchanged and the
// spawn costs a few allocations per round, under the allocation gate, so
// no test sees it.
func stepRound(live, round int, compute func(int) int) int {
	return live - func() int { c := make(chan int); go func() { c <- compute(round) }(); return <-c }() // want `bare go statement outside shard\.go`
}
