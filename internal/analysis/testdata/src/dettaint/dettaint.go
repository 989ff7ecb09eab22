// Package dettaint seeds violations (and legitimate flows) for the
// dettaint analyzer's golden test, using the real congest.Env so the
// structural Send/Broadcast matcher is exercised.
package dettaint

import (
	"math/rand"
	"os"
	"runtime"
	"time"

	"dfl/internal/congest"
)

// direct: a wall-clock value reaches the wire through an assignment chain.
func direct(env *congest.Env, buf []byte) {
	now := time.Now().UnixNano()
	to := int(now % 8)
	env.Send(1, buf)     // untainted payload and destination: allowed
	env.Send(to, buf)    // want `wall-clock read time\.Now flows into the congest wire \(Env\.Send\)`
}

// mapOrder: iteration-order taint — the loop shape is innocent, the
// accumulated value is not.
func mapOrder(env *congest.Env, weights map[int]int) {
	acc := 0
	for _, w := range weights {
		acc ^= w << uint(acc%7) // order-dependent fold
	}
	env.Broadcast([]byte{byte(acc)}) // want `map iteration order flows into the congest wire \(Env\.Broadcast\)`

	sum := 0
	//flvet:ordered integer addition commutes; the sum is identical for every visit order
	for _, w := range weights {
		sum += w
	}
	env.Send(0, []byte{byte(sum)}) // blessed by the ordered directive: allowed
}

// seeds: host state must not seed RNGs; a fully constant seed is fine.
func seeds() {
	src := rand.NewSource(int64(runtime.NumCPU())) // want `host-dependent runtime query runtime\.NumCPU flows into an RNG seed \(rand\.NewSource\)`
	_ = src
	clean := rand.New(rand.NewSource(42)) // constant seed: allowed
	_ = clean
}

// config mirrors the engine's seeded-configuration idiom.
type config struct{ Seed int64 }

func nowNano() int64 { return time.Now().UnixNano() }

// seedFields: taint crosses one call level via nowNano's return summary,
// then lands in Seed-named state both by assignment and composite literal.
func seedFields() config {
	var c config
	c.Seed = nowNano()            // want `wall-clock read time\.Now flows into seed field c\.Seed`
	d := config{Seed: nowNano()}  // want `wall-clock read time\.Now flows into seed field Seed`
	_ = c
	return d
}

// sendVia: the sink is one call level down; the finding surfaces at the
// call site that introduces the taint.
func sendVia(env *congest.Env, b byte) {
	env.Broadcast([]byte{b})
}

func caller(env *congest.Env) {
	sendVia(env, byte(time.Now().Unix())) // want `wall-clock read time\.Now flows into the congest wire \(Env\.Broadcast\) \(via sendVia\)`
	sendVia(env, 7)                       // untainted argument: allowed
}

// registry is written outside init, so reads of it are unsynchronized
// shared state as far as the determinism contract is concerned.
var registry = map[string]int{}

func register(k string) { registry[k] = 1 }

func leak(env *congest.Env, buf []byte) {
	env.Send(registry["x"], buf) // want `read of mutable package-level state registry flows into the congest wire \(Env\.Send\)`
}

// frozenReg carries the immutability argument, so reads stay clean.
//
//flvet:frozen written only during package init via freezeWrite
var frozenReg = map[string]int{}

func freezeWrite(k string) { frozenReg[k] = 2 }

func cleanRead(env *congest.Env, buf []byte) {
	env.Send(frozenReg["x"], buf) // frozen registry: allowed
}

// encTiny is a local wire encoder: its arguments are sinks too.
//
//flvet:encoder maxbits=16
func encTiny(buf []byte, v byte) []byte { return append(buf[:0], 0x7, v) }

func encLeak(buf []byte) []byte {
	return encTiny(buf, byte(os.Getpid()+runtime.NumGoroutine())) // want `host-dependent runtime query runtime\.NumGoroutine flows into wire encoder encTiny`
}

// escaped: the //flvet:nondet escape accepts a justified flow.
func escaped(env *congest.Env) {
	//flvet:nondet trace beacon carries a timestamp by design; receivers ignore it for protocol state
	env.Broadcast([]byte{byte(time.Now().Unix())}) // escaped by the directive above
}

// envSeed and hostPrio are the flows of DESIGN.md §9's mutations T1 and
// T2: an environment variable folded into a run's seed, and the host's CPU
// count folded into an OFFER priority. The tests run in one environment on
// one host, so neither changes an execution they can see.
func envSeed(seed int64) config {
	return config{Seed: seed + int64(len(os.Getenv("DFL_SEED")))} // want `environment read os\.Getenv flows into seed field Seed`
}

func hostPrio(buf []byte, prio byte) []byte {
	return encTiny(buf, prio^byte(runtime.NumCPU())) // want `host-dependent runtime query runtime\.NumCPU flows into wire encoder encTiny`
}
