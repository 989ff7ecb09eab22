// Package detrand seeds the detrand analyzer's golden test: the audit
// mutations it must flag (DESIGN.md §9: T1, T2, T4, D2) and the seeded,
// host-independent idioms the protocol packages use, which must stay
// silent.
package detrand

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

// config mirrors the engine's seeded-configuration idiom.
type config struct {
	Seed   int64
	Shards int
}

// envSeed is mutation T1: an environment variable folded into a run's
// seed. The tests run in one environment, so no execution they compare
// changes.
func envSeed(seed int64) config {
	return config{Seed: seed + int64(len(os.Getenv("DFL_SEED")))} // want `call to os\.Getenv in a protocol package`
}

// hostPrio is mutation T2: the host's CPU count folded into an OFFER
// priority. The tests run on one host.
func hostPrio(rng *rand.Rand) uint32 {
	return rng.Uint32() ^ uint32(runtime.NumCPU()) // want `call to runtime\.NumCPU in a protocol package`
}

// clockSeed is mutation T4: a clock read in a run's seed.
func clockSeed(seed int64) config {
	return config{Seed: seed ^ time.Now().UnixNano()} // want `call to time\.Now in a protocol package`
}

// clockPrio is mutation D2: a clock read XORed into an OFFER priority.
func clockPrio(rng *rand.Rand) uint32 {
	return rng.Uint32() ^ uint32(time.Now().UnixNano()) // want `call to time\.Now in a protocol package`
}

// globalTie breaks a tie with the process-wide generator, which no seed
// reaches.
func globalTie(a, b int) int {
	if rand.Intn(2) == 0 { // want `call to math/rand\.Intn in a protocol package`
		return a
	}
	return b
}

// seeded is the protocol's own idiom: a generator built from the run's
// seed, drawn through its methods. GOMAXPROCS only sizes the shard pool,
// which invariant I5 keeps output-invisible, and duration arithmetic reads
// no clock.
func seeded(seed int64) (uint32, config, time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	c := config{Seed: seed, Shards: runtime.GOMAXPROCS(0)}
	timeout := 3*time.Second + time.Duration(c.Shards)*time.Millisecond
	return rng.Uint32(), c, timeout.Round(time.Millisecond)
}
