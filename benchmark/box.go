package main

import (
	"crypto/ed25519"
	"time"
)

// The sizing box is a shared microVM whose speed shifts by a third for
// minutes at a time: two sets of ten runs of the same code, half an hour
// apart, read 746 and 530 calls/s, 2.5 and 3.5 ms of CPU per call. Every
// number moved by the same factor, so the benchmark measures that factor
// and divides it out. Between stages, while the cluster is idle, it
// times a fixed reference computation that no repository code touches, and
// end-to-end metrics are reported as on a box that runs the reference at
// its nominal speed. The raw readings are per-layer metrics (raw.*), next
// to box.verify_us.

// nominalVerifyUS is the reference's time on the sizing box in a quiet
// minute: one standard-library Ed25519 verification of a 128-byte message.
const nominalVerifyUS = 55.0

// spinFor is how long one reading of the reference runs.
const spinFor = 20 * time.Millisecond

var (
	spinKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	spinMsg = make([]byte, 128)
	spinSig = ed25519.Sign(spinKey, spinMsg)
	spinPub = spinKey.Public().(ed25519.PublicKey)
)

// boxVerifyUS times reference verifications for spinFor and returns the
// median, in microseconds: a preemption in the middle costs one sample.
func boxVerifyUS() float64 {
	var samples []float64
	for start := time.Now(); time.Since(start) < spinFor; {
		t0 := time.Now()
		if !ed25519.Verify(spinPub, spinMsg, spinSig) {
			panic("reference signature does not verify")
		}
		samples = append(samples, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(samples)
}

// atNominal converts a duration taken while the reference ran at verifyUS
// to what it would read at nominal speed.
func atNominal(duration, verifyUS float64) float64 {
	return duration * nominalVerifyUS / verifyUS
}

// rateAtNominal is atNominal for a rate: work per duration.
func rateAtNominal(rate, verifyUS float64) float64 {
	return rate * verifyUS / nominalVerifyUS
}
