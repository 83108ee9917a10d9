package srm

import (
	"bytes"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/pbft"
)

// wrapState is the inverse of the split onStateData performs: the state a
// StateData carries is the application snapshot, then the client table.
func wrapState(app, clients []byte) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctets(app)
	e.WriteOctets(clients)
	return e.Bytes()
}

func unwrapState(t *testing.T, state []byte) (app, clients []byte) {
	t.Helper()
	d := cdr.NewDecoder(state, cdr.BigEndian)
	app, err := d.ReadOctets()
	if err != nil {
		t.Fatal(err)
	}
	clients, err = d.ReadOctets()
	if err != nil {
		t.Fatal(err)
	}
	return app, clients
}

// TestTamperedStateDataChangesNothing: a Byzantine group member answers a
// lagging replica's FetchState with state that differs from the certified
// one in every way the format allows, each time correctly signed and with
// the genuine 2f+1 certificate attached. Each is rejected before Restore or
// any other state change, counted by reason — and the honest StateData
// arriving afterwards is still accepted.
func TestTamperedStateDataChangesNothing(t *testing.T) {
	const capacity = 16
	seed := []byte("statedata-tamper-test")
	reg := obs.NewRegistry()
	td := newTestDomainCfg(t, 35, DomainConfig{
		N: 4, F: 1, QueueCapacity: capacity, CheckpointInterval: 4,
		KeySeed: seed, Metrics: reg,
	})
	// Replica 0 is the liar: same derivation, so the test holds its key.
	liar := td.replicaAuth(t, 0)

	// Keep every checkpoint certificate seen, and the first honest StateData
	// sent to element 3 — which never receives one until the test says so.
	certs := make(map[uint64]map[pbft.ReplicaID]*pbft.Checkpoint)
	var honest *pbft.StateData
	td.net.AddFilter(func(_, to netsim.NodeID, payload []byte) ([]byte, bool) {
		m, err := pbft.Decode(payload)
		if err != nil {
			return nil, false
		}
		switch msg := m.(type) {
		case *pbft.Checkpoint:
			if certs[msg.Seq] == nil {
				certs[msg.Seq] = make(map[pbft.ReplicaID]*pbft.Checkpoint)
			}
			certs[msg.Seq][msg.Replica] = msg
		case *pbft.StateData:
			if to == td.dom.Addrs()[3] {
				if honest == nil {
					honest = msg
				}
				return nil, true
			}
		}
		return nil, false
	})
	s, acks := td.sender(t, "client:a")
	td.isolate(3, "client:a")
	for i := 0; i < 9; i++ {
		td.sendAndWait(t, s, acks, string(rune('a'+i)))
	}
	td.net.Heal()
	for i := 9; i < 14; i++ {
		td.sendAndWait(t, s, acks, string(rune('a'+i)))
	}
	td.net.RunFor(20 * time.Millisecond) // let the answers to the FetchState leave
	if honest == nil {
		t.Fatal("no StateData was sent to the lagging element")
	}
	app, clients := unwrapState(t, honest.Snapshot)
	otherSeq := honest.Seq - 4
	var otherProof []*pbft.Checkpoint
	for r := pbft.ReplicaID(0); r < 3; r++ {
		if c := certs[otherSeq][r]; c != nil {
			otherProof = append(otherProof, c)
		}
	}
	if len(otherProof) != 3 {
		t.Fatalf("%d checkpoints recorded at %d, want a full certificate", len(otherProof), otherSeq)
	}

	// edit returns the application snapshot with fn applied to its parse.
	edit := func(fn func(q *queueState)) []byte {
		q, err := decodeSnapshot(app, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i := range q.window { // own the payloads before editing them
			q.window[i].data = append([]byte(nil), q.window[i].data...)
		}
		fn(q)
		return q.Bytes()
	}
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 1
		return out
	}
	cases := []struct {
		name   string
		reason string
		seq    uint64
		state  []byte
		proof  []*pbft.Checkpoint
	}{
		{name: "flipped payload byte", reason: "digest",
			state: wrapState(edit(func(q *queueState) { q.window[2].data[0] ^= 1 }), clients)},
		{name: "flipped sender", reason: "digest",
			state: wrapState(edit(func(q *queueState) { q.window[2].sender = "client:b" }), clients)},
		{name: "oldest message dropped, base shifted to match", reason: "digest",
			state: wrapState(edit(func(q *queueState) { q.base, q.window = q.window[0].link, q.window[1:] }), clients)},
		{name: "wrong base", reason: "digest",
			state: wrapState(edit(func(q *queueState) { q.base[0] ^= 1 }), clients)},
		{name: "wrong nextSeq", reason: "decode", // the window no longer ends just below it
			state: wrapState(edit(func(q *queueState) { q.nextSeq++ }), clients)},
		{name: "whole window renumbered", reason: "digest",
			state: wrapState(edit(func(q *queueState) {
				q.nextSeq++
				for i := range q.window {
					q.window[i].seq++
				}
			}), clients)},
		{name: "non-contiguous seq", reason: "decode",
			state: wrapState(edit(func(q *queueState) { q.window[1].seq, q.window[2].seq = q.window[2].seq, q.window[1].seq }), clients)},
		{name: "window over capacity", reason: "decode",
			state: wrapState(edit(func(q *queueState) {
				for len(q.window) <= capacity {
					q.nextSeq++
					q.window = append(q.window, queuedMsg{seq: q.nextSeq - 1, sender: "client:a"})
				}
			}), clients)},
		{name: "trailing bytes in the snapshot", reason: "decode",
			state: wrapState(append(append([]byte(nil), app...), 0), clients)},
		{name: "trailing bytes after the state", reason: "decode",
			state: append(wrapState(app, clients), 0)},
		{name: "client table edited", reason: "digest",
			state: wrapState(app, flip(clients, len(clients)-1))},
		{name: "client table truncated", reason: "digest",
			state: wrapState(app, clients[:len(clients)-1])},
		{name: "valid state, certificate of another checkpoint", reason: "proof",
			state: honest.Snapshot, proof: otherProof},
		{name: "valid state offered as another checkpoint's", reason: "digest",
			seq: otherSeq, state: honest.Snapshot, proof: otherProof},
		{name: "valid state, certificate one signature short", reason: "proof",
			state: honest.Snapshot, proof: honest.Proof[:2]},
		{name: "valid state, one signer counted twice", reason: "proof",
			state: honest.Snapshot, proof: []*pbft.Checkpoint{honest.Proof[0], honest.Proof[1], honest.Proof[1]}},
		{name: "valid state, no certificate", reason: "proof",
			state: honest.Snapshot, proof: []*pbft.Checkpoint{}},
	}

	el := td.dom.Elements[3]
	restores := 0
	resync := el.queue.onRestore
	el.queue.onRestore = func() { restores++; resync() }
	rejected := func(reason string) uint64 {
		return reg.Counter("pbft_state_rejected_total", "group=dom", "reason="+reason).Value()
	}
	type observed struct {
		digest            pbft.Digest
		queue             []byte
		lastExec, stable  uint64
		delivered, desync int
	}
	observe := func() observed {
		o := observed{
			digest: el.Replica.StateDigest(), queue: el.queue.Capture().Bytes(),
			lastExec: el.Replica.LastExecuted(), stable: el.Replica.StableCheckpoint(),
			delivered: len(td.deliv[3]),
		}
		if td.desync[3] {
			o.desync = 1
		}
		return o
	}
	for _, tc := range cases {
		sd := &pbft.StateData{Seq: honest.Seq, Snapshot: tc.state, Proof: honest.Proof, Replica: 0}
		if tc.seq != 0 {
			sd.Seq = tc.seq
		}
		if tc.proof != nil {
			sd.Proof = tc.proof
		}
		pbft.SignMessage(liar, sd)
		before, counted := observe(), rejected(tc.reason)
		el.Replica.HandleMessage(pbft.Encode(sd))
		after := observe()
		if after.digest != before.digest || !bytes.Equal(after.queue, before.queue) ||
			after.lastExec != before.lastExec || after.stable != before.stable ||
			after.delivered != before.delivered || after.desync != before.desync || restores != 0 {
			t.Errorf("%s: replica state changed: %+v -> %+v (%d restores)", tc.name, before, after, restores)
		}
		if got := rejected(tc.reason) - counted; got != 1 {
			t.Errorf("%s: counted %d rejections for %q, want 1", tc.name, got, tc.reason)
		}
	}
	if t.Failed() {
		return
	}

	el.Replica.HandleMessage(pbft.Encode(honest))
	// The batches ordered since the checkpoint were waiting in its log.
	if got := el.Replica.LastExecuted(); got < honest.Seq {
		t.Fatalf("honest StateData after the tampered ones: lastExec = %d, want >= %d", got, honest.Seq)
	}
	if restores != 1 {
		t.Fatalf("honest StateData restored the queue %d times, want 1", restores)
	}
	if len(td.deliv[3]) == 0 || td.desync[3] {
		t.Fatalf("restore did not replay the window (delivered %d, desync %v)", len(td.deliv[3]), td.desync[3])
	}
	td.net.RunFor(20 * time.Millisecond)
	if el.Replica.LastExecuted() != td.dom.Elements[1].Replica.LastExecuted() ||
		el.Replica.StateDigest() != td.dom.Elements[1].Replica.StateDigest() {
		t.Fatal("restored element did not converge on the group's state")
	}
}
