// Package netsim holds positive fixtures for the no-wallclock check: every
// marked line must produce exactly the findings named in its want comment.
package netsim

import (
	cryptorand "crypto/rand"
	"math/rand"
	"time"
)

func wallclock() time.Duration {
	start := time.Now()      // want:no-wallclock
	return time.Since(start) // want:no-wallclock
}

func sleepy() {
	time.Sleep(time.Millisecond) // want:no-wallclock
}

func globalRand() int {
	return rand.Intn(10) // want:no-wallclock
}

func entropy(buf []byte) {
	cryptorand.Read(buf) // want:no-wallclock
}

func pickFirst(m map[string]int) (string, int) {
	for k, v := range m { // want:no-wallclock
		return k, v
	}
	return "", 0
}

func sendSome(m map[int]bool, send func(int)) {
	sent := 0
	for id := range m { // want:no-wallclock
		send(id)
		if sent++; sent > 2 {
			break
		}
	}
}

func firstMatch(m map[string][]byte, out *[]byte) {
	for _, v := range m { // want:no-wallclock
		if len(v) > 0 {
			*out = append(*out, v...)
			break
		}
	}
}

// dropped is the keep-test row: netsim's loss decision drawn from the
// process-seeded global source instead of the network's seeded one. No
// test replays a lossy run twice.
func dropped(rate float64) bool {
	return rate > 0 && rand.Float64() < rate // want:no-wallclock
}
