package pbft

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// FuzzPrePrepareDecode feeds arbitrary bytes to the PBFT message decoder.
// Byzantine replicas reach Decode directly, so it must reject malformed
// input with an error — never a panic — and any pre-prepare it accepts must
// survive an encode → decode round trip unchanged. The seeds pin the wire
// compatibility story: a single-request batch encodes byte-identically to
// the legacy boolean-octet form, so pre-batching corpora stay valid. Every
// message type's golden sample seeds the corpus too, and so does a count one
// past maxProofEntries at each of the six list positions
// (TestDecodeRefusesOverlongLists checks those are refused).
func FuzzPrePrepareDecode(f *testing.F) {
	seeds := overlongLists()
	for name, m := range wireSamples(f) {
		seeds[name] = Encode(m)
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	single := &Request{ClientID: "client:0", ClientSeq: 1, Op: []byte("legacy-op")}
	pair := []*Request{
		{ClientID: "client:0", ClientSeq: 2, Op: []byte("batch-a")},
		{ClientID: "client:1", ClientSeq: 1, Op: []byte("batch-b")},
	}
	// Legacy wire form: exactly what a pre-batching replica emitted.
	f.Add(Encode(&PrePrepare{
		View: 0, Seq: 1, Digest: BatchDigest([]*Request{single}),
		Requests: []*Request{single}, Replica: 0,
	}))
	// Multi-request batch.
	f.Add(Encode(&PrePrepare{
		View: 2, Seq: 9, Digest: BatchDigest(pair), Requests: pair, Replica: 2,
	}))
	// Empty (null-digest) pre-prepare, as re-proposed to fill view-change gaps.
	f.Add(Encode(&PrePrepare{View: 1, Seq: 3, Digest: NullDigest, Replica: 1}))
	// Truncated batch and garbage.
	full := Encode(&PrePrepare{
		View: 0, Seq: 4, Digest: BatchDigest(pair), Requests: pair, Replica: 0,
	})
	f.Add(full[:len(full)-7])
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		out := Encode(msg)
		msg2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed message:\n  was %+v\n  now %+v", msg, msg2)
		}
	})
}

// fuzzAuths returns replica 1's and client:x's authenticators in a group of
// four whose keys derive from a fixed seed, and everybody's by identity: the
// committed seeds carry tags that stay valid from run to run.
func fuzzAuths(tb testing.TB) (replica, client Authenticator, all map[string]Authenticator) {
	tb.Helper()
	ring := NewKeyring()
	all = make(map[string]Authenticator)
	for _, id := range []string{"replica:0", "replica:1", "replica:2", "replica:3", "client:x"} {
		priv, err := DeriveIdentity(id, []byte("fuzz-corpus"), ring)
		if err != nil {
			tb.Fatal(err)
		}
		all[id] = NewEd25519Auth(id, priv, ring)
	}
	return all["replica:1"], all["client:x"], all
}

// FuzzMACAuthenticator feeds arbitrary commits to replica 1 of four and
// arbitrary replies to client:x. Whatever the length of the authenticator,
// the check must not panic, and it may pass only when the receiver's slot
// holds exactly the tag the named sender computes over exactly these fields.
func FuzzMACAuthenticator(f *testing.F) {
	replica, client, all := fuzzAuths(f)
	commit := &Commit{View: 2, Seq: 9, Digest: Digest{7}, Replica: 2}
	signIn(all["replica:2"], commit, 4)
	f.Add(Encode(commit))
	reply := &Reply{View: 2, ClientID: "client:x", ClientSeq: 5, Replica: 3, Result: []byte("ack")}
	SignMessage(all["replica:3"], reply)
	f.Add(Encode(reply))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		var ok bool
		var got, want []byte
		switch msg := m.(type) {
		case *Commit:
			if ok = verifyIn(replica, msg, 1, 4); ok {
				got = msg.Sig[MACSize : 2*MACSize]
				want = all[msg.SenderKey()].MAC("replica:1", signingBytes(msg))
			}
		case *Reply:
			if ok = VerifyMessage(client, msg); ok {
				got = msg.Sig
				want = all[msg.SenderKey()].MAC(msg.ClientID, signingBytes(msg))
			}
		}
		if ok && (want == nil || !bytes.Equal(got, want)) {
			t.Fatalf("%T verified with tag %x, sender's is %x", m, got, want)
		}
	})
}
