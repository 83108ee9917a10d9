package timers

import "time"

// The fallback-timer idiom the vote and smiop reply paths use: one timer
// hoisted out of the loop, Reset per iteration, stopped by defer.
func fallback(ch <-chan int, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case v := <-ch:
			if v < 0 {
				return
			}
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(d)
		case <-timer.C:
			return
		}
	}
}

// A ticker with a deferred Stop is fine.
func sampled(work func(), rounds int) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for i := 0; i < rounds; i++ {
		<-t.C
		work()
	}
}

// Handing the ticker to another owner transfers Stop responsibility.
func handOff(install func(*time.Ticker)) {
	t := time.NewTicker(time.Second)
	install(t)
}

type sampler struct{ tick *time.Ticker }

// Stored into a field: whoever owns the struct stops it.
func (s *sampler) start(d time.Duration) {
	s.tick = time.NewTicker(d)
}

func stoppedByDeferredClosure(work func()) {
	t := time.NewTicker(time.Second)
	defer func() {
		work()
		t.Stop()
	}()
	<-t.C
}

// The returned closure owns the ticker.
func stopFunc(d time.Duration) func() {
	t := time.NewTicker(d)
	return func() { t.Stop() }
}

// Written again before the Stop: handed on, as any other use.
func rearmed(d time.Duration) {
	t := time.NewTicker(d)
	t = time.NewTicker(2 * d)
	t.Stop()
}
