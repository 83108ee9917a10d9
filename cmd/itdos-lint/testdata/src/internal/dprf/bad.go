// Package dprf holds fixtures for the insecure-rand check: statistical
// randomness in a key-handling package.
package dprf

import (
	"fmt"
	"math/rand"
)

func weakKey(buf []byte) {
	rand.Read(buf) // want:insecure-rand
}

func weakNonce() uint64 {
	return rand.Uint64() // want:insecure-rand
}

// Even an explicitly seeded generator is predictable to anyone who learns
// or guesses the seed.
func seededKey(seed int64, buf []byte) {
	r := rand.New(rand.NewSource(seed)) // want:insecure-rand insecure-rand
	r.Read(buf)                         // want:insecure-rand
}

// Suppressed: scheduling jitter in a test harness, never key material.
func jitterMillis() int {
	return rand.Intn(50) //itdos:nolint:insecure-rand // test-harness scheduling jitter; output never touches key material
}

// subKey is the keep-test row: dprf's deriveSubKey with its HMAC swapped
// for a generator seeded by the subset id. Every party still agrees on the
// key, so no test can tell it apart; anyone can compute it.
func subKey(sid int) []byte {
	return fmt.Appendf(nil, "%016x", rand.New(rand.NewSource(int64(sid))).Uint64()) // want:insecure-rand
}
