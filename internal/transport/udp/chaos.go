package udp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Chaos is packet-level fault injection for soak runs: a filtering wrapper
// around the send half of a shard's own socket that drops, duplicates and
// delays outbound datagrams with the configured probabilities. Unlike the
// simulator's scheduled faults this chaos is physical — a delayed datagram
// really does race the frames sent after it, and a dropped one really does
// trigger the retransmission machinery — which is exactly what the soak
// harness is for.
type Chaos struct {
	Loss  float64       // drop probability per datagram
	Dup   float64       // duplication probability per datagram
	Delay float64       // delay probability per datagram
	Lag   time.Duration // how long a delayed datagram is held (reorders it past later sends)
	Seed  int64         // rng seed; 0 draws one from the wall clock when wrapping, stored back here

	mu  sync.Mutex
	rng *rand.Rand
}

// ParseChaos parses a "loss=0.1,dup=0.05,delay=0.02,lag=20ms,seed=7" spec;
// empty means no chaos (nil). Unknown keys are errors.
func ParseChaos(spec string) (*Chaos, error) {
	if spec == "" {
		return nil, nil
	}
	c := &Chaos{Lag: 10 * time.Millisecond}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("udp: chaos spec %q: want key=value", kv)
		}
		switch key {
		case "loss", "dup", "delay":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("udp: chaos %s=%q: want probability in [0,1]", key, val)
			}
			switch key {
			case "loss":
				c.Loss = p
			case "dup":
				c.Dup = p
			case "delay":
				c.Delay = p
			}
		case "lag":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("udp: chaos lag=%q: %v", val, err)
			}
			c.Lag = d
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("udp: chaos seed=%q: %v", val, err)
			}
			c.Seed = s
		default:
			return nil, fmt.Errorf("udp: chaos spec has unknown key %q", key)
		}
	}
	return c, nil
}

// wrap returns w with chaos applied to every datagram written through
// it. Applying chaos on the send side only still exercises both
// directions of every conversation once all parties wrap their sockets. A
// zero Seed is drawn from the wall clock here and stored back in Seed, so
// the run can be replayed with seed=Seed.
func (c *Chaos) wrap(w datagramWriter) datagramWriter {
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	c.rng = rand.New(rand.NewSource(c.Seed))
	return &chaosWriter{w: w, chaos: c}
}

type chaosWriter struct {
	w     datagramWriter
	chaos *Chaos
}

func (cw *chaosWriter) WriteToUDPAddrPort(p []byte, addr netip.AddrPort) (int, error) {
	c := cw.chaos
	c.mu.Lock()
	drop := c.rng.Float64() < c.Loss
	dup := c.rng.Float64() < c.Dup
	delay := c.rng.Float64() < c.Delay
	c.mu.Unlock()
	if drop {
		return len(p), nil // swallowed: indistinguishable from wire loss
	}
	if delay && c.Lag > 0 {
		held := append([]byte(nil), p...)
		time.AfterFunc(c.Lag, func() {
			_, _ = cw.w.WriteToUDPAddrPort(held, addr)
		})
		return len(p), nil
	}
	n, err := cw.w.WriteToUDPAddrPort(p, addr)
	if dup && err == nil {
		_, _ = cw.w.WriteToUDPAddrPort(p, addr)
	}
	return n, err
}
