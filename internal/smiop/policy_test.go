package smiop

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/vote"
)

// policyHarness drives one client stream against four server members and
// plays the caller's part of the reply state machine: arm a policy, and on
// a fallback do what replica.awaitReply does — re-request under the plain
// policy, under a fresh id when the policy says so.
type policyHarness struct {
	t       *testing.T
	stream  *Stream
	client  *Connection
	servers []*Connection
	metrics *obs.Registry
	flight  *flight.Recorder

	policy ReplyPolicy // what the outstanding vote was armed with
	id     uint64

	decided  []float64
	received []int
	faults   []int
	evidence [][]byte
	fellBack int
	verifies int // VerifySig calls
}

const policyTestIface, policyTestOp = "IDL:Calc:1.0", "add"

// toySig stands in for the element signature: bound to the member and the
// signing bytes, so a copy signed for another member or context fails.
func toySig(member uint32, msg []byte) []byte {
	sum := sha256.Sum256(append([]byte{byte(member)}, msg...))
	return sum[:]
}

func newPolicyHarness(t *testing.T, p ReplyPolicy) *policyHarness {
	t.Helper()
	h := &policyHarness{t: t, metrics: obs.NewRegistry(), flight: flight.New(64), policy: p}
	h.client, h.servers = serverEndpoints(t, testKey(5))
	var err error
	h.stream, err = NewStream(h.client, StreamConfig{
		Registry: testRegistry(),
		VerifySig: func(_ string, member uint32, signing, sig []byte) bool {
			h.verifies++
			return bytes.Equal(sig, toySig(member, signing))
		},
		Metrics: h.metrics, Flight: h.flight, FlightID: "client",
	})
	if err != nil {
		t.Fatal(err)
	}
	h.stream.OnMessage = func(val *MessageVal, dec *vote.Decision) {
		h.decided = append(h.decided, val.Body.([]cdr.Value)[0].(float64))
		h.received = append(h.received, dec.Received)
	}
	h.stream.OnFault = func(member int, report vote.FaultReport) {
		h.faults = append(h.faults, member)
		h.evidence = append(h.evidence, report.Evidence)
	}
	// The endpoint resumes the parked call from inside this callback, so
	// the re-arm runs re-entrantly under Deliver; mirror that.
	h.stream.OnFallback = func(uint64) { h.fallBack() }
	h.id = h.client.NextRequestID()
	if err := h.stream.Expect(h.id, policyTestIface, policyTestOp, p); err != nil {
		t.Fatal(err)
	}
	return h
}

// fallBack is awaitReply's single fallback arm.
func (h *policyHarness) fallBack() {
	h.stream.NoteFallback()
	if h.policy.Fallback == FallbackFreshID {
		h.id = h.client.NextRequestID()
	}
	h.policy = ReplyPolicy{}
	h.fellBack++
	if err := h.stream.ExpectReply(h.id, policyTestIface, policyTestOp); err != nil {
		h.t.Fatal(err)
	}
}

// send delivers what member m answers to the outstanding request: under a
// digest policy everyone but the responder sends the canonical digest of
// its reply, otherwise the full reply. forge breaks the signature.
func (h *policyHarness) send(m int, sum float64, forge bool) {
	h.t.Helper()
	signer := uint32(m)
	if forge {
		signer++
	}
	sign := func(msg []byte) []byte { return toySig(signer, msg) }
	if h.policy.Digest && m != h.policy.Responder {
		h.deliver(h.digestEnv(m, h.id, sum, sign))
		return
	}
	op, _ := testRegistry().Lookup(policyTestIface, policyTestOp)
	body, err := cdr.Marshal(op.ResultsType(), []cdr.Value{sum}, cdr.BigEndian)
	if err != nil {
		h.t.Fatal(err)
	}
	rep := giop.EncodeReply(cdr.BigEndian, &giop.Reply{RequestID: h.id, Body: body})
	h.deliver(sealEnvs(h.t, h.servers[m], h.id, true, rep, sign, 0)[0])
}

func (h *policyHarness) digestEnv(m int, id uint64, sum float64, sign func([]byte) []byte) *Envelope {
	h.t.Helper()
	op, _ := testRegistry().Lookup(policyTestIface, policyTestOp)
	digest, err := CanonicalReplyDigest(policyTestIface, policyTestOp, giop.StatusNoException, "",
		op.ResultsType(), []cdr.Value{sum})
	if err != nil {
		h.t.Fatal(err)
	}
	frame := h.servers[m].SealSignedDigest(id, digest, sign)
	defer frame.Release()
	env, err := DecodeEnvelope(bytes.Clone(frame.B))
	if err != nil {
		h.t.Fatal(err)
	}
	return env
}

// deliver feeds one envelope; Deliver's error is diagnostic (the stream
// has accounted for the envelope), so the harness reads the counters.
func (h *policyHarness) deliver(env *Envelope) { _ = h.stream.Deliver(env) }

func (h *policyHarness) fallbackCount() uint64 {
	return h.metrics.Counter("smiop_reply_fallback_total", fmt.Sprintf("conn=%d", h.client.ID)).Value()
}

func (h *policyHarness) fallbackEvents() (n int) {
	for _, ev := range h.flight.Events("client") {
		if ev.Kind == flight.KindDigestFallback {
			n++
		}
	}
	return n
}

// TestReplyPolicyTable runs every reply policy through the one vote state
// machine: same scenarios, same decided value, and the only differences
// are the ones the policy names — copies needed, and whether (and under
// which id) a stall or timeout falls back.
func TestReplyPolicyTable(t *testing.T) {
	const responder, honest, lie = 1, 42.5, 666.0
	policies := []struct {
		name   string
		p      ReplyPolicy
		copies int // submissions received when an all-honest vote decides
	}{
		{"plain", ReplyPolicy{}, 2},
		{"digest", DigestReply(responder), 2},
		{"readonly", ReadOnlyReply, 3},
		{"tentative", TentativeReply, 3},
	}
	type want struct {
		fallbacks uint64
		faults    []int
		discarded uint64 // beyond the agreeing copies that arrive after the decision
		dropped   uint64
	}
	// late is how many full copies arrive, agreeing, after the vote that
	// finally decides (the plain one once a policy fell back): each is
	// discarded unverified.
	late := func(p ReplyPolicy, plain, digest, quorum3 uint64) uint64 {
		switch {
		case p.Digest:
			return digest
		case p.Quorum == QuorumReadOnly:
			return quorum3
		}
		return plain
	}
	scenarios := []struct {
		name string
		run  func(h *policyHarness)
		want func(p ReplyPolicy) want
	}{
		{
			name: "all honest",
			run: func(h *policyHarness) {
				for m := 0; m < 4; m++ {
					h.send(m, honest, false)
				}
			},
			// A digest vote's stragglers are digests, which keep their path.
			want: func(p ReplyPolicy) want { return want{discarded: late(p, 2, 0, 1)} },
		},
		{
			// The member that sends the full reply lies. Plain and 2f+1
			// votes mask it (three honest copies remain); a digest vote has
			// no other reply bytes, stalls, and falls back — and the full
			// vote it re-arms re-counts the carried lie, so it is reported
			// without being re-sent.
			name: "lying full responder",
			run: func(h *policyHarness) {
				h.send(responder, lie, false)
				for _, m := range []int{0, 2, 3} {
					h.send(m, honest, false)
				}
				if h.fellBack > 0 {
					for _, m := range []int{0, 2, 3} {
						h.send(m, honest, false)
					}
				}
			},
			want: func(p ReplyPolicy) want {
				w := want{faults: []int{responder}, discarded: late(p, 1, 1, 0)}
				if p.Digest {
					w.fallbacks = 1
				}
				return w
			},
		},
		{
			// One copy arrives, then the caller's timeout. The voter sees
			// silence as "not stalled yet", so only NoteFallback records it —
			// and only for a policy that has a fallback; a plain vote keeps
			// waiting and decides when the rest arrive.
			name: "silent responder, timeout",
			run: func(h *policyHarness) {
				h.send(0, honest, false)
				old := h.id
				if h.policy.Fallback != FallbackNone {
					h.fallBack()
				} else {
					h.stream.NoteFallback()
				}
				if cur := h.id; cur != old {
					// A fast-path straggler under the abandoned id.
					h.id = old
					h.send(3, honest, false)
					h.id = cur
				}
				for _, m := range []int{0, 2, 3} {
					h.send(m, honest, false)
				}
			},
			want: func(p ReplyPolicy) want {
				w := want{discarded: 1} // member 3, after 0 and 2 decided
				if p.Fallback != FallbackNone {
					w.fallbacks = 1
				}
				if p.Fallback == FallbackFreshID {
					w.discarded++
				}
				return w
			},
		},
		{
			// After the re-arm no digest vote is armed: a late digest for
			// the same id is stale or Byzantine — discarded, nobody blamed.
			name: "stale digest after re-arm",
			run: func(h *policyHarness) {
				h.send(0, honest, false)
				if h.policy.Fallback != FallbackNone {
					h.fallBack()
				}
				h.deliver(h.digestEnv(2, h.id, honest, func(msg []byte) []byte { return toySig(2, msg) }))
				for _, m := range []int{0, 2, 3} {
					h.send(m, honest, false)
				}
			},
			want: func(p ReplyPolicy) want {
				w := want{discarded: 2} // the digest, and member 3's late copy
				if p.Fallback != FallbackNone {
					w.fallbacks = 1
				}
				return w
			},
		},
		{
			// Full copy or digest, the signature is checked before the
			// vote sees it.
			name: "forged signature",
			run: func(h *policyHarness) {
				h.send(0, honest, true)
				for _, m := range []int{1, 2, 3} {
					h.send(m, honest, false)
				}
			},
			want: func(p ReplyPolicy) want { return want{dropped: 1, discarded: late(p, 1, 0, 0)} },
		},
	}
	for _, pc := range policies {
		for _, sc := range scenarios {
			t.Run(pc.name+"/"+sc.name, func(t *testing.T) {
				h := newPolicyHarness(t, pc.p)
				sc.run(h)
				w := sc.want(pc.p)
				if len(h.decided) != 1 || h.decided[0] != honest {
					t.Fatalf("decided %v, want exactly one decision of %v", h.decided, honest)
				}
				if sc.name == "all honest" && h.received[0] != pc.copies {
					t.Errorf("decided on %d copies, want %d", h.received[0], pc.copies)
				}
				if got := h.fallbackCount(); got != w.fallbacks {
					t.Errorf("smiop_reply_fallback_total = %d, want %d", got, w.fallbacks)
				}
				if got := h.fallbackEvents(); uint64(got) != w.fallbacks {
					t.Errorf("digest-fallback flight events = %d, want %d", got, w.fallbacks)
				}
				if uint64(h.fellBack) != w.fallbacks {
					t.Errorf("caller fell back %d times, want %d", h.fellBack, w.fallbacks)
				}
				if !reflect.DeepEqual(h.faults, w.faults) {
					t.Errorf("faults reported = %v, want %v", h.faults, w.faults)
				}
				if got := h.stream.Voter().Discarded; got != w.discarded {
					t.Errorf("discarded = %d, want %d", got, w.discarded)
				}
				if h.stream.Dropped != w.dropped {
					t.Errorf("dropped = %d, want %d", h.stream.Dropped, w.dropped)
				}
			})
		}
	}
}

// TestPlainVoteStallHasNoFallback: a vote armed with the plain policy that
// scatters past deciding has nothing to fall back to, so it must neither
// signal the caller nor count or flight-record a fallback — whatever
// callbacks are wired.
func TestPlainVoteStallHasNoFallback(t *testing.T) {
	h := newPolicyHarness(t, ReplyPolicy{})
	for m := 0; m < 4; m++ {
		h.send(m, float64(m), false)
	}
	if !h.stream.Voter().Stalled() {
		t.Fatal("four distinct values did not stall the f+1 vote")
	}
	if h.fellBack != 0 || h.fallbackCount() != 0 || h.fallbackEvents() != 0 {
		t.Errorf("stalled plain vote fell back: signalled=%d counter=%d events=%d",
			h.fellBack, h.fallbackCount(), h.fallbackEvents())
	}
	if len(h.decided) != 0 {
		t.Errorf("scattered vote decided %v", h.decided)
	}
}

// TestLateReplyCopies: a full reply copy that arrives after its vote decided
// is compared before it is authenticated. One that agrees costs no signature
// check and is discarded; one that differs is checked and submitted as ever,
// so a validly signed lie is reported with itself as evidence and a forged
// one is dropped with nobody blamed. A member whose agreeing copy was
// discarded is not marked seen: its later lie is still caught.
func TestLateReplyCopies(t *testing.T) {
	const honest, lie = 42.5, 666.0
	for _, tc := range []struct {
		name                string
		sum                 float64
		forge               bool
		verifies, discarded int
		dropped             uint64
		faults              []int
	}{
		{name: "agrees", sum: honest, discarded: 1},
		{name: "agrees, forged", sum: honest, forge: true, discarded: 1},
		{name: "differs", sum: lie, verifies: 1, faults: []int{3}},
		{name: "differs, forged", sum: lie, forge: true, verifies: 1, dropped: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newPolicyHarness(t, ReplyPolicy{})
			h.send(0, honest, false)
			h.send(1, honest, false)
			if len(h.decided) != 1 {
				t.Fatalf("decided %v after f+1 copies", h.decided)
			}
			before := h.verifies
			h.send(3, tc.sum, tc.forge)
			if got := h.verifies - before; got != tc.verifies {
				t.Errorf("%d signature checks, want %d", got, tc.verifies)
			}
			if got := h.stream.Voter().Discarded; got != uint64(tc.discarded) {
				t.Errorf("discarded = %d, want %d", got, tc.discarded)
			}
			if h.stream.Dropped != tc.dropped {
				t.Errorf("dropped = %d, want %d", h.stream.Dropped, tc.dropped)
			}
			if !reflect.DeepEqual(h.faults, tc.faults) {
				t.Fatalf("faults reported = %v, want %v", h.faults, tc.faults)
			}
			if len(tc.faults) == 1 {
				payload, err := DecodeSignedPayload(h.evidence[0])
				if err != nil || len(payload.Sig) == 0 {
					t.Errorf("evidence is not the signed copy: %v", err)
				}
			}
			if tc.discarded == 1 {
				// Discarded, not seen: the same member's lie still counts.
				h.send(3, lie, false)
				if !reflect.DeepEqual(h.faults, []int{3}) {
					t.Errorf("lie after a discarded copy: faults = %v, want [3]", h.faults)
				}
			}
			if len(h.decided) != 1 || h.decided[0] != honest {
				t.Errorf("decided %v, want one decision of %v", h.decided, honest)
			}
		})
	}
}
