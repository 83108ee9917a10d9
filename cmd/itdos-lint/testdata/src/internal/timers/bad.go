// Package timers holds fixtures for the ticker-leak check: per-iteration
// timer allocation and unstopped tickers.
package timers

import "time"

// The classic select-in-for leak: each iteration allocates a timer that
// stays live until it fires.
func pollLoop(ch <-chan int) {
	for {
		select {
		case v := <-ch:
			if v < 0 {
				return
			}
		case <-time.After(time.Minute): // want:ticker-leak
			return
		}
	}
}

// time.Tick has no Stop; its ticker leaks by design.
func heartbeat() <-chan time.Time {
	return time.Tick(time.Second) // want:ticker-leak
}

// A ticker that is never stopped keeps its goroutine and runtime timer for
// the life of the process.
func unstopped(work func()) {
	t := time.NewTicker(time.Second) // want:ticker-leak
	for range t.C {
		work()
	}
}

// Allocating a ticker per iteration multiplies the leak.
func perIteration(work func(), n int) {
	for i := 0; i < n; i++ {
		t := time.NewTicker(time.Millisecond) // want:ticker-leak
		<-t.C
		t.Stop()
		work()
	}
}

// Suppressed: a cold path that runs at most once per process.
func shutdownGrace(done <-chan int) {
	for {
		select {
		case <-done:
			return
		case <-time.After(5 * time.Second): //itdos:nolint:ticker-leak // shutdown grace period; the loop exits after at most one extra iteration
			return
		}
	}
}

// A Stop on one path only: the early return leaves the ticker running.
func stopsOnOnePath(ch <-chan int) int {
	t := time.NewTicker(time.Second) // want:ticker-leak
	if v := <-ch; v < 0 {
		return v
	}
	<-t.C
	t.Stop()
	return 0
}

// A ticker nobody holds can never be stopped.
func discarded(d time.Duration) {
	time.NewTicker(d)     // want:ticker-leak
	_ = time.NewTicker(d) // want:ticker-leak
}
