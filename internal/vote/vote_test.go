package vote

import (
	"fmt"
	"testing"
	"testing/quick"

	"itdos/internal/cdr"
)

var doubleTC = cdr.StructOf("R", cdr.Member{Name: "v", Type: cdr.Double})

func dv(x float64) cdr.Value { return []cdr.Value{x} }

func mustVoter(t *testing.T, n, f int, cmp Comparator, mode Mode) *Voter {
	t.Helper()
	v, err := NewVoter(Config{N: n, F: f, Comparator: cmp, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEagerDecisionAtFPlus1(t *testing.T) {
	v := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	d, err := v.Submit(Submission{Member: 0, Value: dv(1.5), Raw: []byte("m0")})
	if err != nil || d != nil {
		t.Fatalf("decided after 1 message: %v, %v", d, err)
	}
	d, err = v.Submit(Submission{Member: 1, Value: dv(1.5), Raw: []byte("m1")})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("f+1 identical messages should decide")
	}
	if d.Received != 2 || len(d.Supporters) != 2 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestFaultyValueMaskedAndReported(t *testing.T) {
	v := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	if _, err := v.Submit(Submission{Member: 2, Value: dv(99.0), Raw: []byte("evil")}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Submit(Submission{Member: 0, Value: dv(1.0), Raw: []byte("good0")}); err != nil {
		t.Fatal(err)
	}
	d, err := v.Submit(Submission{Member: 1, Value: dv(1.0), Raw: []byte("good1")})
	if err != nil || d == nil {
		t.Fatalf("no decision: %v", err)
	}
	if got := d.Value.([]cdr.Value)[0].(float64); got != 1.0 {
		t.Fatalf("decided %v, want 1.0", got)
	}
	faults := v.Faults()
	if len(faults) != 1 || faults[0].Member != 2 {
		t.Fatalf("faults = %+v", faults)
	}
	if string(faults[0].Evidence) != "evil" {
		t.Fatalf("evidence = %q", faults[0].Evidence)
	}
}

func TestLateConflictingMessageReported(t *testing.T) {
	v := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	v.Submit(Submission{Member: 0, Value: dv(1.0)})
	v.Submit(Submission{Member: 1, Value: dv(1.0)})
	if !v.Decided() {
		t.Fatal("should have decided")
	}
	v.Submit(Submission{Member: 3, Value: dv(42.0), Raw: []byte("late-evil")})
	if len(v.Faults()) != 1 || v.Faults()[0].Member != 3 {
		t.Fatalf("late conflicting message not reported: %+v", v.Faults())
	}
	v.Submit(Submission{Member: 2, Value: dv(1.0)})
	if len(v.Faults()) != 1 {
		t.Fatal("agreeing late message wrongly reported")
	}
}

func TestDuplicateSubmissionIgnored(t *testing.T) {
	v := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	v.Submit(Submission{Member: 0, Value: dv(7.0)})
	d, err := v.Submit(Submission{Member: 0, Value: dv(7.0)})
	if err != nil || d != nil {
		t.Fatal("duplicate from same member must not double-count")
	}
	if v.Received() != 1 {
		t.Fatalf("received = %d", v.Received())
	}
}

func TestModes(t *testing.T) {
	// Same submissions; decision timing differs by mode.
	subs := []Submission{
		{Member: 0, Value: dv(1.0)},
		{Member: 1, Value: dv(1.0)},
		{Member: 2, Value: dv(1.0)},
		{Member: 3, Value: dv(1.0)},
	}
	decideAt := func(mode Mode) int {
		v := mustVoter(t, 4, 1, Exact{TC: doubleTC}, mode)
		for i, s := range subs {
			if d, _ := v.Submit(s); d != nil {
				return i + 1
			}
		}
		return -1
	}
	if got := decideAt(EagerFPlus1); got != 2 {
		t.Errorf("eager decided at %d, want 2", got)
	}
	if got := decideAt(AfterQuorum); got != 3 {
		t.Errorf("quorum decided at %d, want 3", got)
	}
	if got := decideAt(WaitAll); got != 4 {
		t.Errorf("wait-all decided at %d, want 4", got)
	}
}

func TestInexactVotingMasksPlatformJitter(t *testing.T) {
	// Heterogeneous platforms answer 1.0 ± tiny jitter. Exact voting
	// scatters into singletons and stalls; inexact voting decides.
	jittered := []Submission{
		{Member: 0, Value: dv(1.0)},
		{Member: 1, Value: dv(1.0 + 1e-9)},
		{Member: 2, Value: dv(1.0 - 2e-9)},
		{Member: 3, Value: dv(1.0 + 3e-9)},
	}
	exact := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	for _, s := range jittered {
		if d, _ := exact.Submit(s); d != nil {
			t.Fatal("exact voting should not decide on jittered floats")
		}
	}
	if !exact.Stalled() {
		t.Fatal("exact voter should report stalled")
	}
	inexact := mustVoter(t, 4, 1, Inexact{TC: doubleTC, Epsilon: 1e-6}, EagerFPlus1)
	var d *Decision
	for _, s := range jittered {
		if got, err := inexact.Submit(s); err != nil {
			t.Fatal(err)
		} else if got != nil && d == nil {
			d = got
		}
	}
	if d == nil {
		t.Fatal("inexact voting should decide")
	}
}

func TestInexactNonTransitivity(t *testing.T) {
	// a ≈ b and b ≈ c but a !≈ c: with first-match clustering, c joins the
	// class of its first match (a's class rep) only if it matches the rep.
	// Here rep=1.00; b=1.009 matches; c=1.018 does not match rep → new
	// class. This is exactly the non-transitivity the paper warns about.
	v := mustVoter(t, 3, 0, Inexact{TC: doubleTC, Epsilon: 0.01}, WaitAll)
	v.Submit(Submission{Member: 0, Value: dv(1.000)})
	v.Submit(Submission{Member: 1, Value: dv(1.009)})
	d, err := v.Submit(Submission{Member: 2, Value: dv(1.018)})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("f=0 vote should decide")
	}
	if len(d.Supporters) != 2 {
		t.Fatalf("supporters = %v (c must not have joined transitively)", d.Supporters)
	}
}

func TestByteExactFailsUnderHeterogeneity(t *testing.T) {
	// The same value marshalled on big- and little-endian platforms: byte
	// voting sees disagreement, value voting sees agreement — the core
	// claim of the paper (§3.6).
	val := []cdr.Value{123.456}
	be, err := cdr.Marshal(doubleTC, val, cdr.BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	le, err := cdr.Marshal(doubleTC, val, cdr.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}

	byteVoter := mustVoter(t, 2, 0, ByteExact{}, WaitAll)
	byteVoter.Submit(Submission{Member: 0, Value: be, Raw: be})
	d, _ := byteVoter.Submit(Submission{Member: 1, Value: le, Raw: le})
	if d != nil && len(d.Supporters) == 2 {
		t.Fatal("byte-by-byte voting should not match heterogeneous encodings")
	}

	a, _ := cdr.Unmarshal(doubleTC, be, cdr.BigEndian)
	b, _ := cdr.Unmarshal(doubleTC, le, cdr.LittleEndian)
	valVoter := mustVoter(t, 2, 0, Exact{TC: doubleTC}, WaitAll)
	valVoter.Submit(Submission{Member: 0, Value: a, Raw: be})
	d, err = valVoter.Submit(Submission{Member: 1, Value: b, Raw: le})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || len(d.Supporters) != 2 {
		t.Fatal("unmarshalled voting should match heterogeneous encodings")
	}
}

func TestStalledDetection(t *testing.T) {
	v := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	v.Submit(Submission{Member: 0, Value: dv(1.0)})
	v.Submit(Submission{Member: 1, Value: dv(2.0)})
	if v.Stalled() {
		t.Fatal("2 classes with 2 members remaining can still decide")
	}
	v.Submit(Submission{Member: 2, Value: dv(3.0)})
	if v.Stalled() {
		t.Fatal("a class can still reach 2 with 1 remaining")
	}
	v.Submit(Submission{Member: 3, Value: dv(4.0)})
	if !v.Stalled() {
		t.Fatal("all 4 values distinct: vote can never decide")
	}
}

func TestVoterConfigValidation(t *testing.T) {
	if _, err := NewVoter(Config{N: 4, F: 1}); err == nil {
		t.Error("missing comparator accepted")
	}
	if _, err := NewVoter(Config{N: 1, F: 1, Comparator: ByteExact{}}); err == nil {
		t.Error("n < f+1 accepted")
	}
	v := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	if _, err := v.Submit(Submission{Member: 9, Value: dv(1.0)}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestConnectionVoterRequestIDDiscipline(t *testing.T) {
	cv, err := NewConnectionVoter(4, 1, EagerFPlus1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cv.Expect(1, Exact{TC: doubleTC}, Policy{}); err != nil {
		t.Fatal(err)
	}
	// Submissions for a different request id are discarded, not penalised.
	d, err := cv.Submit(7, Submission{Member: 0, Value: dv(1.0)})
	if err != nil || d != nil {
		t.Fatal("mismatched id should be silently discarded")
	}
	if cv.Discarded != 1 {
		t.Fatalf("discarded = %d", cv.Discarded)
	}
	cv.Submit(1, Submission{Member: 0, Value: dv(1.0)})
	d, err = cv.Submit(1, Submission{Member: 1, Value: dv(1.0)})
	if err != nil || d == nil {
		t.Fatalf("vote on matching id failed: %v", err)
	}
	// Move to the next request: ids must increase.
	if err := cv.Expect(1, Exact{TC: doubleTC}, Policy{}); err == nil {
		t.Fatal("non-increasing request id accepted")
	}
	if err := cv.Expect(2, Exact{TC: doubleTC}, Policy{}); err != nil {
		t.Fatal(err)
	}
	// Late replies to request 1 are discarded after GC.
	d, err = cv.Submit(1, Submission{Member: 2, Value: dv(1.0)})
	if err != nil || d != nil {
		t.Fatal("late reply for GC'd request should be discarded")
	}
}

// TestConnectionVoterReopen: a Reopen restarts the outstanding vote with
// fresh state under the policy it is given, and never moves the id.
func TestConnectionVoterReopen(t *testing.T) {
	cv, err := NewConnectionVoter(4, 1, EagerFPlus1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cv.Expect(5, nil, Policy{Digest: true, Responder: 1}); err != nil {
		t.Fatal(err)
	}
	if cv.DigestVoter() == nil || cv.Voter() != nil {
		t.Fatal("digest policy did not arm a digest voter")
	}
	if err := cv.Expect(6, Exact{TC: doubleTC}, Policy{Reopen: true}); err == nil {
		t.Fatal("reopen moved the request id")
	}
	if err := cv.Expect(5, Exact{TC: doubleTC}, Policy{Reopen: true, Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	if cv.DigestVoter() != nil || cv.Voter() == nil || cv.CurrentID() != 5 {
		t.Fatal("reopen did not replace the digest vote with a full vote for id 5")
	}
	for m := 0; m < 2; m++ {
		if d, _ := cv.Submit(5, Submission{Member: m, Value: dv(1.0)}); d != nil {
			t.Fatal("threshold 3 vote decided on fewer copies")
		}
	}
	if d, _ := cv.Submit(5, Submission{Member: 2, Value: dv(1.0)}); d == nil || !cv.Decided() {
		t.Fatal("threshold 3 vote did not decide on 3 matching copies")
	}
}

func TestConnectionVoterGarbageCollectsIncompleteVote(t *testing.T) {
	cv, err := NewConnectionVoter(4, 1, EagerFPlus1)
	if err != nil {
		t.Fatal(err)
	}
	cv.Expect(1, Exact{TC: doubleTC}, Policy{})
	cv.Submit(1, Submission{Member: 0, Value: dv(1.0)}) // never completes
	if err := cv.Expect(2, Exact{TC: doubleTC}, Policy{}); err != nil {
		t.Fatal(err)
	}
	if cv.Voter().Received() != 0 {
		t.Fatal("old vote state not garbage-collected")
	}
}

func TestAdaptiveWidensUntilDecision(t *testing.T) {
	a, err := NewAdaptive(4, 1, EagerFPlus1, doubleTC, []float64{1e-9, 1e-6, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// Spread of 1e-5: stalls at 1e-9, stalls at 1e-6 only after enough
	// submissions, decides at 1e-3.
	subs := []Submission{
		{Member: 0, Value: dv(1.00000)},
		{Member: 1, Value: dv(1.00001)},
		{Member: 2, Value: dv(1.00002)},
		{Member: 3, Value: dv(1.00003)},
	}
	var d *Decision
	for _, s := range subs {
		got, err := a.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			d = got
			break
		}
	}
	if d == nil {
		t.Fatal("adaptive voter never decided")
	}
	if a.Epsilon() != 1e-3 {
		t.Fatalf("decided at ε=%g, want escalation to 1e-3", a.Epsilon())
	}
}

func TestAdaptiveDecidesAtTightestPossible(t *testing.T) {
	a, err := NewAdaptive(4, 1, EagerFPlus1, doubleTC, []float64{1e-9, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	a.Submit(Submission{Member: 0, Value: dv(2.0)})
	d, err := a.Submit(Submission{Member: 1, Value: dv(2.0)})
	if err != nil || d == nil {
		t.Fatalf("identical values should decide immediately: %v", err)
	}
	if a.Epsilon() != 1e-9 {
		t.Fatalf("ε=%g, want tightest 1e-9", a.Epsilon())
	}
}

func TestAdaptiveScheduleValidation(t *testing.T) {
	if _, err := NewAdaptive(4, 1, EagerFPlus1, doubleTC, nil); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := NewAdaptive(4, 1, EagerFPlus1, doubleTC, []float64{1e-3, 1e-6}); err == nil {
		t.Error("non-increasing schedule accepted")
	}
}

func TestQuickVoterSafetyProperty(t *testing.T) {
	// Property: with at most f faulty members (arbitrary values) and n-f
	// correct members all submitting the same value, the voter always
	// decides the correct value regardless of arrival order.
	prop := func(seed int64) bool {
		n, f := 7, 2
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// Seeded shuffle.
		s := seed
		for i := n - 1; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(uint64(s) % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		v, err := NewVoter(Config{N: n, F: f, Comparator: Exact{TC: doubleTC}})
		if err != nil {
			return false
		}
		var decided *Decision
		for _, m := range order {
			val := 42.0
			if m < f { // members 0..f-1 are faulty with arbitrary values
				val = float64(m) * 1000.1
			}
			d, err := v.Submit(Submission{Member: m, Value: dv(val)})
			if err != nil {
				return false
			}
			if d != nil && decided == nil {
				decided = d
			}
		}
		return decided != nil && decided.Value.([]cdr.Value)[0].(float64) == 42.0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterministicDecisions(t *testing.T) {
	// Property: two voters fed the same submissions in the same order make
	// identical decisions — the determinism ITDOS relies on so replicas
	// need not synchronise their voters (paper §3.6).
	prop := func(vals []float64) bool {
		n := len(vals)
		if n == 0 || n > 16 {
			return true
		}
		f := (n - 1) / 3
		mk := func() []*Decision {
			v, err := NewVoter(Config{N: n, F: f, Comparator: Inexact{TC: doubleTC, Epsilon: 0.5}})
			if err != nil {
				return nil
			}
			var ds []*Decision
			for i, x := range vals {
				d, err := v.Submit(Submission{Member: i, Value: dv(x)})
				if err != nil {
					return nil
				}
				ds = append(ds, d)
			}
			return ds
		}
		a, b := mk(), mk()
		if a == nil || b == nil {
			return false
		}
		for i := range a {
			if (a[i] == nil) != (b[i] == nil) {
				return false
			}
			if a[i] != nil && fmt.Sprint(a[i].Value) != fmt.Sprint(b[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestApprovalVoting(t *testing.T) {
	// Any value in [0, 10] is acceptable; replicas legitimately return
	// different correct answers. Equality voting scatters; approval voting
	// decides once f+1 acceptable answers arrive.
	accept := func(v cdr.Value) bool {
		x, ok := v.([]cdr.Value)[0].(float64)
		return ok && x >= 0 && x <= 10
	}
	subs := []Submission{
		{Member: 0, Value: dv(3.0)},
		{Member: 1, Value: dv(7.0)},   // different but also acceptable
		{Member: 2, Value: dv(-99.0)}, // Byzantine
	}
	exact := mustVoter(t, 4, 1, Exact{TC: doubleTC}, EagerFPlus1)
	for _, s := range subs {
		if d, _ := exact.Submit(s); d != nil {
			t.Fatal("exact voting should not decide on scattered correct answers")
		}
	}
	approval := mustVoter(t, 4, 1, Approval{Accept: accept}, EagerFPlus1)
	var dec *Decision
	for _, s := range subs {
		if d, err := approval.Submit(s); err != nil {
			t.Fatal(err)
		} else if d != nil && dec == nil {
			dec = d
		}
	}
	if dec == nil {
		t.Fatal("approval voting never decided")
	}
	if !accept(dec.Value) {
		t.Fatalf("approved decision %v fails the predicate", dec.Value)
	}
	if len(dec.Supporters) != 2 {
		t.Fatalf("supporters = %v", dec.Supporters)
	}
	// The Byzantine out-of-range value is reported once observed.
	if got := approval.Faults(); len(got) != 1 || got[0].Member != 2 {
		t.Fatalf("faults = %+v", got)
	}
}

func TestApprovalRequiresPredicate(t *testing.T) {
	// The comparator is first exercised when a second value must be
	// clustered against the first.
	v := mustVoter(t, 3, 1, Approval{}, EagerFPlus1)
	if _, err := v.Submit(Submission{Member: 0, Value: dv(1.0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Submit(Submission{Member: 1, Value: dv(1.0)}); err == nil {
		t.Fatal("nil predicate accepted")
	}
}
