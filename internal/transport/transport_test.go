package transport

import (
	"math"
	"testing"
	"time"
)

// TestBackoff pins the one retry schedule: capped doubling from base.
func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name            string
		attempt         int
		base, cap, want time.Duration
	}{
		{"attempt 0 is base", 0, 50 * ms, 2 * time.Second, 50 * ms},
		{"attempt 1 doubles", 1, 50 * ms, 2 * time.Second, 100 * ms},
		{"attempt 3 doubles thrice", 3, 50 * ms, 2 * time.Second, 400 * ms},
		{"holds at cap once reached", 6, 50 * ms, 2 * time.Second, 2 * time.Second},
		{"exact cap", 2, 10 * ms, 40 * ms, 40 * ms},
		{"one past exact cap", 3, 10 * ms, 40 * ms, 40 * ms},
		{"huge attempt returns cap", math.MaxInt, 50 * ms, 2 * time.Second, 2 * time.Second},
		{"base above cap returns cap", 0, 5 * time.Second, time.Second, time.Second},
	} {
		if got := Backoff(tc.attempt, tc.base, tc.cap); got != tc.want {
			t.Errorf("%s: Backoff(%d, %v, %v) = %v, want %v", tc.name, tc.attempt, tc.base, tc.cap, got, tc.want)
		}
	}
}
