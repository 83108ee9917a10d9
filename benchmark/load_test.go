package main

import (
	"math"
	"math/rand"
	"testing"

	"itdos/internal/cdr"
)

func TestScheduleDeterministicBySeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(11)), 200, 1000)
	b := poissonSchedule(rand.New(rand.NewSource(11)), 200, 1000)
	c := poissonSchedule(rand.New(rand.NewSource(12)), 200, 1000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	// 1000 arrivals at 200/s span about 5 s (sd about 0.16 s).
	if span := a[len(a)-1].Seconds(); math.Abs(span-5) > 0.8 {
		t.Errorf("1000 arrivals at 200/s span %.2fs, want about 5s", span)
	}
}

func TestInputsDeterministicAndChecked(t *testing.T) {
	a := genInputs(rand.New(rand.NewSource(5)), 4, 16<<10)
	b := genInputs(rand.New(rand.NewSource(5)), 4, 16<<10)
	for i := range a {
		if a[i].s != b[i].s {
			t.Fatalf("same seed, echo input %d differs", i)
		}
		if len(a[i].s) != 16<<10 {
			t.Fatalf("echo input %d has %d bytes, want %d", i, len(a[i].s), 16<<10)
		}
		for _, ch := range []byte(a[i].s) {
			if ch < ' ' || ch > '~' {
				t.Fatalf("echo input %d holds unprintable byte %#x", i, ch)
			}
		}
	}
	if a[0].s == a[1].s {
		t.Error("consecutive echo inputs are equal; each call must send a fresh string")
	}
	if err := a[0].check([]cdr.Value{a[0].s}); err != nil {
		t.Errorf("byte-equal echo rejected: %v", err)
	}
	if err := a[0].check([]cdr.Value{a[1].s}); err == nil {
		t.Error("a different string passed the echo check")
	}

	add := genInputs(rand.New(rand.NewSource(5)), 1, 0)[0]
	if add.op() != "add" || len(add.args()) != 2 {
		t.Fatalf("add input has op %q and %d args", add.op(), len(add.args()))
	}
	if err := add.check([]cdr.Value{add.a + add.b}); err != nil {
		t.Errorf("exact sum rejected: %v", err)
	}
	if err := add.check([]cdr.Value{add.a + add.b + 1}); err == nil {
		t.Error("a wrong sum passed the add check")
	}
	if err := add.check(nil); err == nil {
		t.Error("an empty reply passed the add check")
	}
}

func TestEpisodeStaysBelowQueueCapacity(t *testing.T) {
	for _, w := range workloads {
		ep := w.episode(false)
		if want := len(w.pre) + w.rounds*len(w.stages); len(ep) != want {
			t.Fatalf("%s: episode has %d stage runs, want %d", w.name, len(ep), want)
		}
		if got := len(w.episode(true)); got != len(ep)+len(w.post) {
			t.Errorf("%s: traced episode has %d stage runs, want %d", w.name, got, len(ep)+len(w.post))
		}
		// The seed's ordering queue holds 4096 messages and every append
		// past that copies the whole window: an episode must end before it
		// fills, so every round measures the same regime. echo_16k sends
		// two fragments, hence two ordered messages, per call.
		msgs, perCall := w.warm, 1
		if w.echoBytes > 0 {
			perCall = 2
		}
		for _, st := range ep {
			msgs += st.calls * perCall
		}
		if msgs >= 4096 {
			t.Errorf("%s: %d ordered messages in an episode, want < 4096", w.name, msgs)
		}
		if w.fresh && w.pool(ep) != msgs {
			t.Errorf("%s: pool of %d clients for %d first calls", w.name, w.pool(ep), msgs)
		}
	}
}
