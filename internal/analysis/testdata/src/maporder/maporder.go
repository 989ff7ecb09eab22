// Package maporder seeds violations (and legitimate patterns) for the
// maporder analyzer's golden test.
package maporder

import (
	"sort"

	"dfl/internal/congest"
)

func leaks(m map[int]int, out []int, ch chan int, sink map[int]int) []int {
	var acc []int
	for k := range m { // want `appends to a slice`
		acc = append(acc, k)
	}
	for k, v := range m { // want `writes through a slice index`
		out[k] = v
	}
	for k := range m { // want `sends on a channel`
		ch <- k
	}
	total := 0
	for _, v := range m { // order-insensitive integer reduction: allowed
		total += v
	}
	for k, v := range m { // per-key map writes: allowed
		sink[k] = v
	}
	out[0] = total
	return acc
}

func sorted(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//flvet:ordered the keys are sorted immediately after collection
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sends(env *congest.Env, live map[int32]bool, payload []byte) {
	for v := range live { // want `stages a message via Env\.Send`
		env.Send(int(v), payload)
	}
	for _, v := range env.Neighbors() { // slice iteration: allowed
		if live[v] {
			env.Send(int(v), payload)
		}
	}
}
