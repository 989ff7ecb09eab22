package udp

import "time"

// Policy is the retransmission schedule of a reliable link: the real-timer
// sibling of congest.Reliable's round-based linear schedule. A frame is
// retransmitted when its deadline lapses unacknowledged; attempt a (0-based
// over transmissions already made) waits Base<<a, capped at Cap. After
// Budget retransmissions — Budget+1 transmissions total — the link is
// declared down and the frame abandoned, surfacing a typed
// congest.LinkDownError (the simulator's shim counts the same event in
// congest.Stats.LinkDowns).
type Policy struct {
	Base   time.Duration // first retransmit deadline; doubles per attempt
	Cap    time.Duration // upper bound on any single wait
	Budget int           // retransmissions allowed before the link is declared down
}

// DefaultPolicy is tuned for loopback soak runs: aggressive enough to ride
// through 10%+ loss without stretching rounds, patient enough that a
// briefly descheduled peer is not declared dead.
var DefaultPolicy = Policy{Base: 10 * time.Millisecond, Cap: 160 * time.Millisecond, Budget: 8}

// Delay returns how long transmission attempt a (0-based) waits for an ack
// before the next retransmission.
func (p Policy) Delay(attempt int) time.Duration {
	d := p.Base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= p.Cap {
			return p.Cap
		}
	}
	if d > p.Cap {
		return p.Cap
	}
	return d
}

// Exhausted reports whether a frame that has been transmitted `attempts`
// times is out of budget.
func (p Policy) Exhausted(attempts int) bool { return attempts >= 1+p.Budget }

// TotalWait is the worst-case time from first transmission to the link
// being declared down: the sum of every attempt's delay. Barrier timeouts
// must exceed it, or the gateway declares peers down before their links do.
func (p Policy) TotalWait() time.Duration {
	var sum time.Duration
	for a := 0; a <= p.Budget; a++ {
		sum += p.Delay(a)
	}
	return sum
}
