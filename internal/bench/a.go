package bench

import (
	"fmt"
	"math"

	"itdos/internal/cdr"
	"itdos/internal/netsim"
	"itdos/internal/vote"
)

// A1 exercises the two-thread execution model (paper §3.1) under growing
// nesting depth: while an element's ORB thread is blocked inside a nested
// invocation, its Castro–Liskov delivery thread must keep consuming
// totally-ordered messages — otherwise the nested reply (which arrives on
// that very stream) could never be processed and the system would
// deadlock.
func A1() (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "Nested invocation depth: the CL thread runs under the blocked ORB thread",
		Source: "paper §3.1 (two threads per replication domain element)",
		Headers: []string{"nested depth", "result correct", "sim latency",
			"front-element deliveries during call", "completed"},
	}
	for _, depth := range []int{1, 2, 3, 4} {
		sys, _, err := newNestedBenchSystem(int64(90 + depth))
		if err != nil {
			return nil, err
		}
		alice := sys.Client("alice")
		// Warm both connections so only nesting is measured.
		if _, err := alice.CallAndRun(frontBenchRef, "relay", []cdr.Value{1.0}, 30_000_000); err != nil {
			return nil, err
		}
		el := sys.Domain("front").Elements[0]
		beforeDeliv := el.Delivered
		d := snap(sys.Net)
		res, err := alice.CallAndRun(frontBenchRef, "chain",
			[]cdr.Value{3.0, int32(depth)}, 60_000_000)
		completed := err == nil
		correct := completed && res[0].(float64) == 3.0*math.Pow(2, float64(depth))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%v", correct),
			ms(d.elapsed()),
			fmt.Sprintf("%d", el.Delivered-beforeDeliv),
			fmt.Sprintf("%v", completed),
		})
		_ = sys.Close()
	}
	t.Note = "every row's deliveries happened while the element's single application " +
		"thread was blocked in ctx.Caller.Call — with a single-threaded transport the " +
		"nested replies could never be delivered and every row would deadlock. Latency " +
		"grows linearly with depth: each level adds one full BFT round trip."
	return t, nil
}

// A2 ablates Group Manager replication: connection establishment
// availability when GM elements crash, for a singleton GM vs a replicated
// GM — the reason the Group Manager is itself a replication domain
// (paper §3.3).
func A2() (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "Group Manager replication: handshake availability under GM crashes",
		Source: "paper §3.3 (the Group Manager is an ITDOS replication domain)",
		Headers: []string{"GM configuration", "crashed GM elements",
			"new connection", "sim latency"},
	}
	run := func(gmN, gmF, crash int) (string, string, error) {
		sys, err := newCalcSystem(calcOpts{seed: int64(95 + crash), gmN: gmN, gmF: gmF})
		if err != nil {
			return "", "", err
		}
		defer sys.Close()
		for i := 0; i < crash; i++ {
			sys.Net.RemoveNode(netsim.NodeID(fmt.Sprintf("gm/r%d", i)))
		}
		d := snap(sys.Net)
		_, err = sys.Client("alice").CallAndRun(calcRef, "add",
			[]cdr.Value{1.0, 1.0}, 3_000_000)
		if err != nil {
			return "FAILED", "-", nil
		}
		return "established", ms(d.elapsed()), nil
	}
	for _, c := range []struct {
		gmN, gmF, crash int
	}{
		{1, 0, 0}, {1, 0, 1}, {4, 1, 0}, {4, 1, 1}, {4, 1, 2},
	} {
		outcome, lat, err := run(c.gmN, c.gmF, c.crash)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("n=%d f=%d", c.gmN, c.gmF),
			fmt.Sprintf("%d", c.crash),
			outcome, lat,
		})
	}
	t.Note = "a singleton Group Manager is a single point of failure for every new " +
		"association; the replicated GM keeps establishing connections with up to f " +
		"elements down (and C7 shows it also bounds key exposure under compromise)."
	return t, nil
}

// A3 compares fixed-ε voting with the adaptive voter (paper §4 future
// work, [32]): the adaptive voter starts at the tightest precision and
// widens only when the vote provably cannot decide.
func A3() (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  "Adaptive voting: precision chosen per vote vs fixed tolerance",
		Source: "paper §4 (adaptive voting, citing [32])",
		Headers: []string{"value spread", "fixed ε=1e-12", "fixed ε=1e-3",
			"adaptive outcome", "adaptive final ε"},
	}
	tc := cdr.StructOf("R", cdr.Member{Name: "v", Type: cdr.Double})
	mkSubs := func(spread float64) []vote.Submission {
		out := make([]vote.Submission, 4)
		for i := range out {
			out[i] = vote.Submission{
				Member: i,
				Value:  []cdr.Value{1.0 + spread*float64(i)},
			}
		}
		return out
	}
	runFixed := func(eps, spread float64) string {
		v, err := vote.NewVoter(vote.Config{
			N: 4, F: 1, Comparator: vote.Inexact{TC: tc, Epsilon: eps},
		})
		if err != nil {
			return "error"
		}
		for _, s := range mkSubs(spread) {
			if d, _ := v.Submit(s); d != nil {
				return "decided"
			}
		}
		return "stalled"
	}
	runAdaptive := func(spread float64) (string, string) {
		a, err := vote.NewAdaptive(4, 1, vote.EagerFPlus1, tc,
			[]float64{1e-12, 1e-9, 1e-6, 1e-3})
		if err != nil {
			return "error", "-"
		}
		for _, s := range mkSubs(spread) {
			if d, _ := a.Submit(s); d != nil {
				return "decided", fmt.Sprintf("%.0e", a.Epsilon())
			}
		}
		return "stalled", fmt.Sprintf("%.0e", a.Epsilon())
	}
	for _, spread := range []float64{0, 1e-13, 1e-10, 1e-7, 1e-4} {
		adOut, adEps := runAdaptive(spread)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", spread),
			runFixed(1e-12, spread),
			runFixed(1e-3, spread),
			adOut, adEps,
		})
	}
	t.Note = "a tight fixed ε stalls on divergent platforms; a loose fixed ε sacrifices " +
		"precision on every vote. The adaptive voter pays the loose tolerance only when " +
		"the spread demands it."
	return t, nil
}
