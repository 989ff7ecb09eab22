package congest

import (
	"math/rand"
	"testing"
)

// facilityBeacon broadcasts a two-byte payload every round until rounds
// when sender is set, and otherwise only reads its inbox.
type facilityBeacon struct {
	env    *Env
	sender bool
	rounds int
	sum    byte
}

func (f *facilityBeacon) Init(env *Env) { f.env = env }

func (f *facilityBeacon) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		f.sum += m.Payload[0]
	}
	if r >= f.rounds {
		return true
	}
	if f.sender {
		f.env.Broadcast([]byte{byte(r), f.sum})
	}
	return false
}

// BenchmarkBroadcastBipartite measures the broadcast path at facility-
// location shape: a 200x1600 bipartite graph at density 0.2 (about 64k
// edges), every facility broadcasting every round for 20 rounds and every
// client receiving, so each round expands 200 broadcast records into about
// 64k deliveries. One op is one whole Run, graph built outside the timer,
// on the sequential runner and on 2 shards.
func BenchmarkBroadcastBipartite(b *testing.B) {
	const m, nc, density, rounds = 200, 1600, 0.2, 20
	g, err := Bipartite(m, nc, func(yield func(int, int) bool) {
		rng := rand.New(rand.NewSource(1)) // both walks see the same edges
		for i := 0; i < m; i++ {
			for j := 0; j < nc; j++ {
				if rng.Float64() < density && !yield(i, j) {
					return
				}
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"seq", Config{}}, {"shards=2", Config{Parallel: true, Shards: 2}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				nodes := make([]Node, g.N())
				for id := range nodes {
					nodes[id] = &facilityBeacon{sender: id < m, rounds: rounds}
				}
				bc.cfg.Seed = int64(i)
				st, err := Run(g, nodes, bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				msgs += st.Messages
			}
			b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}
