package smiop

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/obs"
	"itdos/internal/vote"
)

// TestDeliverVouching pins, at the stream, when a copy is admitted without a
// check of its payload signature: only when every fragment carries an
// ordered sender and that sender is the identity the envelope claims.
func TestDeliverVouching(t *testing.T) {
	signer := func(domain string, member uint32) string { return fmt.Sprintf("%s/r%d", domain, member) }
	greeting := strings.Repeat("g", 150) // four 64-byte fragments with its signature
	type copyOf struct {
		member    int
		orderedBy []string // per fragment; one entry for an unfragmented copy
		forge     bool
	}
	for _, tc := range []struct {
		name      string
		fragSize  int
		copies    []copyOf
		decided   bool
		verifies  int
		outcomes  map[string]uint64
		streamCfg func(*StreamConfig)
	}{
		{name: "ordered by the claimed identity: no check, even of an invented signature",
			copies:  []copyOf{{0, []string{"bank/r0"}, true}, {1, []string{"bank/r1"}, true}},
			decided: true, outcomes: map[string]uint64{"vouched": 2}},
		{name: "ordered by another member: checked and dropped",
			copies:   []copyOf{{0, []string{"bank/r1"}, true}, {1, []string{"bank/r1"}, false}},
			verifies: 1, outcomes: map[string]uint64{"rejected": 1, "vouched": 1}},
		{name: "direct channel: checked whatever it claims",
			copies:   []copyOf{{0, []string{""}, true}, {1, []string{""}, false}, {2, []string{""}, false}},
			decided:  true,
			verifies: 3, outcomes: map[string]uint64{"rejected": 1, "verified": 2}},
		{name: "no identity map: nothing is vouched for",
			copies:   []copyOf{{0, []string{"bank/r0"}, true}, {1, []string{"bank/r1"}, false}},
			verifies: 2, outcomes: map[string]uint64{"rejected": 1, "verified": 1},
			streamCfg: func(c *StreamConfig) { c.SignerOf = nil }},
		{name: "every fragment vouched",
			fragSize: 64,
			copies: []copyOf{{0, []string{"bank/r0", "bank/r0", "bank/r0", "bank/r0"}, true},
				{1, []string{"bank/r1", "bank/r1", "bank/r1", "bank/r1"}, true}},
			decided: true, outcomes: map[string]uint64{"vouched": 2}},
		{name: "one fragment ordered by someone else: the message is checked",
			fragSize: 64,
			copies: []copyOf{{0, []string{"bank/r0", "bank/r3", "bank/r0", "bank/r0"}, true},
				{1, []string{"bank/r1", "bank/r1", "bank/r1", ""}, false},
				{2, []string{"bank/r2", "bank/r2", "bank/r2", "bank/r2"}, true}},
			decided:  true,
			verifies: 2, outcomes: map[string]uint64{"rejected": 1, "verified": 1, "vouched": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, servers := serverEndpoints(t, testKey(5))
			verifies := 0
			reg := obs.NewRegistry()
			cfg := StreamConfig{
				Registry: testRegistry(),
				VerifySig: func(_ string, member uint32, signing, sig []byte) bool {
					verifies++
					return bytes.Equal(sig, toySig(member, signing))
				},
				SignerOf: signer,
				Metrics:  reg,
			}
			if tc.streamCfg != nil {
				tc.streamCfg(&cfg)
			}
			stream, err := NewStream(client, cfg)
			if err != nil {
				t.Fatal(err)
			}
			decided := false
			stream.OnMessage = func(*MessageVal, *vote.Decision) { decided = true }
			id := client.NextRequestID()
			if err := stream.ExpectReply(id, "IDL:Calc:1.0", "greet"); err != nil {
				t.Fatal(err)
			}
			op, _ := testRegistry().Lookup("IDL:Calc:1.0", "greet")
			body, err := cdr.Marshal(op.ResultsType(), []cdr.Value{greeting}, cdr.BigEndian)
			if err != nil {
				t.Fatal(err)
			}
			rep := giop.EncodeReply(cdr.BigEndian, &giop.Reply{RequestID: id, Body: body})
			for _, c := range tc.copies {
				signAs := uint32(c.member)
				if c.forge {
					signAs++
				}
				fragSize := tc.fragSize
				if fragSize == 0 {
					fragSize = 1 << 20
				}
				envs := sealEnvs(t, servers[c.member], id, true, rep,
					func(msg []byte) []byte { return toySig(signAs, msg) }, fragSize)
				if len(envs) != len(c.orderedBy) {
					t.Fatalf("copy of member %d is %d envelopes, the case names %d senders", c.member, len(envs), len(c.orderedBy))
				}
				for i, got := range envs {
					// Across the wire and back: only the receiver sets OrderedBy.
					if got.OrderedBy != "" {
						t.Fatalf("DecodeEnvelope set OrderedBy %q", got.OrderedBy)
					}
					got.OrderedBy = c.orderedBy[i]
					_ = stream.Deliver(got)
				}
			}
			if decided != tc.decided {
				t.Errorf("decided = %v, want %v", decided, tc.decided)
			}
			if verifies != tc.verifies {
				t.Errorf("%d payload signature checks, want %d", verifies, tc.verifies)
			}
			for _, outcome := range []string{"verified", "rejected", "vouched", "late_equal"} {
				got := reg.Counter("smiop_sig_checks_total", "outcome="+outcome, "stream=initiator").Value()
				if got != tc.outcomes[outcome] {
					t.Errorf("outcome %s = %d, want %d", outcome, got, tc.outcomes[outcome])
				}
			}
		})
	}
}
