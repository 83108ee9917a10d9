package vote

import "testing"

// digestVoter arms a digest vote of n members around responder. Its copies
// are classed by digest alone, so the comparator never runs.
func digestVoter(n, f, responder int) (*Voter, error) {
	return NewVoter(Config{N: n, F: f, Comparator: ByteExact{}, Digest: true, Responder: responder})
}

func dsub(member int, digest string, full any) Submission {
	return Submission{Member: member, Digest: []byte(digest), Value: full, Raw: []byte{byte(member)}}
}

func TestDigestVoteHappyPath(t *testing.T) {
	// n=4 f=1, responder 2. Two matching digests plus the responder's full
	// reply decide; the decision carries the full value.
	v, err := digestVoter(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec, _ := v.Submit(dsub(0, "D", nil)); dec != nil {
		t.Fatal("decided on one bare digest")
	}
	if v.Stalled() {
		t.Fatal("stalled while the responder is pending")
	}
	dec, err := v.Submit(dsub(2, "D", "the-reply"))
	if err != nil {
		t.Fatal(err)
	}
	if dec == nil {
		t.Fatal("full reply completing an f+1 class did not decide")
	}
	if dec.Value.(string) != "the-reply" {
		t.Fatalf("decision value %v", dec.Value)
	}
	if len(dec.Supporters) != 2 || dec.Supporters[0] != 0 || dec.Supporters[1] != 2 {
		t.Fatalf("supporters %v", dec.Supporters)
	}
	// Late digests are absorbed without disturbing the decision.
	if late, _ := v.Submit(dsub(1, "D", nil)); late != nil {
		t.Fatal("second decision emitted")
	}
	if v.Received() != 3 {
		t.Fatalf("received = %d", v.Received())
	}
}

func TestDigestVoteNeverDecidesOnDigestsAlone(t *testing.T) {
	// f+1 (even n-1) matching digests without the full reply must not
	// decide: the voter has no bytes to return.
	v, _ := digestVoter(4, 1, 3)
	for m := 0; m < 3; m++ {
		if dec, _ := v.Submit(dsub(m, "D", nil)); dec != nil {
			t.Fatal("decided without any full reply")
		}
	}
	if v.Stalled() {
		t.Fatal("stalled while the responder can still complete the class")
	}
	// The responder's matching full reply completes it.
	dec, _ := v.Submit(dsub(3, "D", "late-full"))
	if dec == nil || dec.Value.(string) != "late-full" {
		t.Fatalf("decision %+v", dec)
	}
}

func TestDigestVoteLyingResponderStalls(t *testing.T) {
	// The responder's full reply lands in a minority class; the honest
	// digest class can never get reply bytes → stalled, caller falls back.
	v, _ := digestVoter(4, 1, 1)
	v.Submit(dsub(0, "HONEST", nil))
	v.Submit(dsub(1, "EVIL", "wrong-value"))
	v.Submit(dsub(2, "HONEST", nil))
	if v.Stalled() {
		t.Fatal("stalled while member 3 could still join EVIL") // it won't, but the voter can't know
	}
	v.Submit(dsub(3, "HONEST", nil))
	if v.Decided() {
		t.Fatal("decided despite the full reply being outvoted")
	}
	if !v.Stalled() {
		t.Fatal("not stalled: EVIL cannot reach f+1, HONEST has no bytes")
	}
}

func TestDigestVoteScatterStalls(t *testing.T) {
	// Platform float divergence: every member in its own class.
	v, _ := digestVoter(4, 1, 0)
	v.Submit(dsub(0, "A", "full-a"))
	v.Submit(dsub(1, "B", nil))
	v.Submit(dsub(2, "C", nil))
	if v.Stalled() {
		t.Fatal("stalled while member 3 could still match A")
	}
	v.Submit(dsub(3, "D", nil))
	if !v.Stalled() {
		t.Fatal("scattered digests did not stall")
	}
	if v.Decided() {
		t.Fatal("decided on scattered digests")
	}
}

func TestDigestVoteValidation(t *testing.T) {
	if _, err := digestVoter(0, 0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := digestVoter(4, 4, 0); err == nil {
		t.Error("n<f+1 accepted")
	}
	if _, err := digestVoter(4, 1, 4); err == nil {
		t.Error("responder out of range accepted")
	}
	v, _ := digestVoter(4, 1, 0)
	if _, err := v.Submit(dsub(4, "D", nil)); err == nil {
		t.Error("member out of range accepted")
	}
	if _, err := v.Submit(Submission{Member: 0, Value: "full"}); err == nil {
		t.Error("empty digest accepted")
	}
	// Duplicate member: ignored, not an error.
	v.Submit(dsub(1, "D", nil))
	if _, err := v.Submit(dsub(1, "E", nil)); err != nil {
		t.Errorf("duplicate submission errored: %v", err)
	}
	if v.Received() != 1 {
		t.Errorf("received = %d after duplicate", v.Received())
	}
}
