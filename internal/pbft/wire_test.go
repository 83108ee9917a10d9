package pbft

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"itdos/internal/cdr"
)

const wireGoldenPath = "testdata/wire_golden.json"

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_golden.json with the encodings Encode produces now")

// goldenFrame is one encoded message as the golden file keeps it.
type goldenFrame struct {
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

// wireSamples returns at least one instance of each of the eleven message
// types, authenticated by fuzzAuths' fixed keys so the bytes repeat from run
// to run: the list-carrying messages hold every list they can (a view change
// with a checkpoint proof and prepared certificates, a new view with view
// changes and pre-prepares, a multi-request pre-prepare).
func wireSamples(tb testing.TB) map[string]Message {
	tb.Helper()
	_, _, all := fuzzAuths(tb)
	signed := func(m Message) Message {
		if req, ok := m.(*Request); ok {
			signIn(all[req.ClientID], m, fuzzIDs)
		} else {
			signIn(all[fuzzIDs[m.sender()]], m, fuzzIDs)
		}
		return m
	}
	req := func(seq uint64, op string) *Request {
		return signed(&Request{ClientID: "client:x", ClientSeq: seq, Op: []byte(op), ReplyTo: "client/x"}).(*Request)
	}
	batch := []*Request{req(2, "batch-a"), req(3, "batch-b"), req(4, "batch-c")}
	pp := func(view, seq uint64, reqs []*Request) *PrePrepare {
		return signed(&PrePrepare{View: view, Seq: seq, Digest: BatchDigest(reqs),
			Requests: reqs, Replica: ReplicaID(view % 4)}).(*PrePrepare)
	}
	prepared := func(view, seq uint64, reqs []*Request) *PreparedProof {
		p := pp(view, seq, reqs)
		proof := &PreparedProof{PrePrepare: p}
		for _, id := range []ReplicaID{1, 2, 3} {
			if id != p.Replica {
				proof.Prepares = append(proof.Prepares, signed(&Prepare{View: view, Seq: seq,
					Digest: p.Digest, Replica: id}).(*Prepare))
			}
		}
		return proof
	}
	state := Digest{0x5e, 0xed}
	var ckpts []*Checkpoint
	for id := ReplicaID(0); id < 3; id++ {
		ckpts = append(ckpts, signed(&Checkpoint{Seq: 8, StateDigest: state, Replica: id}).(*Checkpoint))
	}
	vc := func(id ReplicaID) *ViewChange {
		return signed(&ViewChange{NewView: 1, LastStable: 8, CheckpointProof: ckpts,
			Prepared: []*PreparedProof{prepared(0, 9, batch[:1]), prepared(0, 10, batch[1:])},
			Replica:  id}).(*ViewChange)
	}
	return map[string]Message{
		"request":            req(1, "op"),
		"pre-prepare-single": pp(0, 1, batch[:1]),
		"pre-prepare-batch":  pp(2, 9, batch),
		"pre-prepare-null":   pp(1, 3, nil),
		"prepare":            signed(&Prepare{View: 0, Seq: 1, Digest: Digest{1}, Replica: 2}),
		"commit":             signed(&Commit{View: 0, Seq: 1, Digest: Digest{1}, Replica: 2}),
		"reply": signed(&Reply{View: 0, ClientID: "client:x", ClientSeq: 1, Replica: 3,
			Result: []byte("SRM-ACK")}),
		"checkpoint":  ckpts[0],
		"view-change": vc(1),
		"view-change-bare": signed(&ViewChange{NewView: 2, CheckpointProof: []*Checkpoint{},
			Prepared: []*PreparedProof{}, Replica: 3}),
		"new-view": signed(&NewView{View: 1, ViewChanges: []*ViewChange{vc(1), vc(2), vc(3)},
			PrePrepares: []*PrePrepare{pp(1, 9, batch[:1]), pp(1, 10, batch[1:]), pp(1, 11, nil)},
			Replica:     1}),
		"fetch-state": signed(&FetchState{Seq: 8, Replica: 2}),
		"state-data": signed(&StateData{Seq: 8, Snapshot: []byte("snapshot-bytes"),
			Proof: ckpts, Replica: 0}),
		"fetch-entry": signed(&FetchEntry{View: 0, Seq: 5, Replica: 1}),
	}
}

// TestPBFTWireGolden pins the PBFT wire format: Encode must produce, byte
// for byte, the encodings recorded in testdata/wire_golden.json for every
// message type, and each must decode back to the message it came from.
// Regenerate with -update-wire-golden only for a deliberate format change.
func TestPBFTWireGolden(t *testing.T) {
	golden := make(map[string]goldenFrame)
	if !*updateWireGolden {
		raw, err := os.ReadFile(wireGoldenPath)
		if err != nil {
			t.Fatalf("no committed vectors (run with -update-wire-golden): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	samples := wireSamples(t)
	types := make(map[MsgType]bool)
	for name, m := range samples {
		types[m.Type()] = true
		wire := Encode(m)
		sum := sha256.Sum256(wire)
		got := goldenFrame{len(wire), hex.EncodeToString(sum[:])}
		if *updateWireGolden {
			golden[name] = got
		} else if got != golden[name] {
			t.Errorf("%s: encoding %+v differs from the committed %+v", name, got, golden[name])
		}
		back, err := Decode(wire)
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Errorf("%s: does not decode back to itself (err %v)", name, err)
		}
	}
	if len(types) != int(MTFetchEntry) {
		t.Fatalf("samples cover %d of %d message types", len(types), MTFetchEntry)
	}
	if *updateWireGolden {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// overlongLists returns, for each of the six counted lists a message can
// carry, an encoding whose count at that position is one above
// maxProofEntries, followed by nothing.
func overlongLists() map[string][]byte {
	const count = maxProofEntries + 1
	head := func(t MsgType) *cdr.Encoder {
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteOctet(byte(t))
		return e
	}
	pp := &PrePrepare{View: 0, Seq: 1, Digest: NullDigest}
	out := make(map[string][]byte)

	e := head(MTViewChange) // a prepared certificate's prepares
	e.WriteULongLong(1)
	e.WriteULongLong(0)
	e.WriteULong(0)
	e.WriteULong(1)
	pp.marshal(e)
	e.WriteULong(count)
	out["prepared-proof/prepares"] = e.Bytes()

	e = head(MTViewChange)
	e.WriteULongLong(1)
	e.WriteULongLong(0)
	e.WriteULong(count)
	out["view-change/checkpoint-proof"] = e.Bytes()

	e = head(MTViewChange)
	e.WriteULongLong(1)
	e.WriteULongLong(0)
	e.WriteULong(0)
	e.WriteULong(count)
	out["view-change/prepared"] = e.Bytes()

	e = head(MTNewView)
	e.WriteULongLong(1)
	e.WriteULong(count)
	out["new-view/view-changes"] = e.Bytes()

	e = head(MTNewView)
	e.WriteULongLong(1)
	e.WriteULong(0)
	e.WriteULong(count)
	out["new-view/pre-prepares"] = e.Bytes()

	e = head(MTStateData)
	e.WriteULongLong(8)
	e.WriteOctets([]byte("snapshot"))
	e.WriteULong(count)
	out["state-data/proof"] = e.Bytes()
	return out
}

// TestDecodeRefusesOverlongLists: a count above maxProofEntries is refused
// by the bound, before anything is allocated for it, at each of the six
// list positions.
func TestDecodeRefusesOverlongLists(t *testing.T) {
	for name, wire := range overlongLists() {
		_, err := Decode(wire)
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: decode error %v, want the list bound's", name, err)
		}
	}
}

// TestEncodeAllocatesOnce: Encode sizes its buffer from the message's fields
// (encodedBound), so a lone request and a pre-prepare of sixteen requests are
// written without regrowing it, whatever their field lengths and wherever
// each embedded request starts against the 8-octet alignment: Encode makes
// as many allocations for them as for a prepare, which its fixed room holds
// (the buffer, and the encoder the marshal call lets escape).
func TestEncodeAllocatesOnce(t *testing.T) {
	req := func(shift, i int) *Request {
		return &Request{
			ClientID:  strings.Repeat("c", 1+(shift+i)%8),
			ClientSeq: uint64(i),
			Op:        make([]byte, 100+shift+3*i),
			ReplyTo:   strings.Repeat("r", (shift+2*i)%8),
			Sig:       make([]byte, 64),
			Tags:      make([]byte, 16*((shift+i)%4)+(shift+3*i)%8),
		}
	}
	prepare := &Prepare{View: 1, Seq: 1, Replica: 1, Sig: make([]byte, 64)}
	want := testing.AllocsPerRun(5, func() { Encode(prepare) })
	starts := map[int]bool{}
	for shift := 0; shift < 8; shift++ {
		pp := &PrePrepare{View: 1, Seq: uint64(shift), Replica: 1, Sig: make([]byte, 64)}
		for i := 0; i < 16; i++ {
			pp.Requests = append(pp.Requests, req(shift, i))
		}
		// Where each embedded request starts: after the type octet, view,
		// sequence number, digest and count, then after each request before
		// it.
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteOctet(byte(MTPrePrepare))
		e.WriteULongLong(pp.View)
		e.WriteULongLong(pp.Seq)
		e.WriteOctets(pp.Digest[:])
		e.WriteOctet(byte(len(pp.Requests)))
		for _, r := range pp.Requests {
			starts[e.Len()%8] = true
			r.marshal(e)
			// The same request from each start: never over its bound.
			for o := 0; o < 8; o++ {
				e := cdr.NewEncoder(cdr.BigEndian)
				for e.Len() < o {
					e.WriteOctet(0)
				}
				r.marshal(e)
				if n := e.Len() - o; n > r.encodedSize()+embeddedSlack {
					t.Errorf("a request of %d octets on its own took %d from offset %d", r.encodedSize(), n, o)
				}
			}
		}
		for _, m := range []Message{req(shift, 0), pp} {
			if allocs := testing.AllocsPerRun(5, func() { Encode(m) }); allocs != want {
				t.Errorf("shift %d: Encode(%T) made %v allocations, a prepare's %v", shift, m, allocs, want)
			}
		}
	}
	if len(starts) != 8 {
		t.Fatalf("embedded requests started at %d of the 8 alignments", len(starts))
	}
}
