package srm

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/pbft"
)

// prefill executes n identical messages on every element's queue directly —
// the state n ordered messages would have left — so a test can start from a
// full window without ordering thousands of messages first.
func (td *testDomain) prefill(n, payload int) {
	data := make([]byte, payload)
	for _, el := range td.dom.Elements {
		deliver := el.OnDeliver
		el.OnDeliver = nil
		for i := 0; i < n; i++ {
			execute(el.queue, "client:fill", data)
		}
		el.OnDeliver = deliver
	}
}

// checkpointBytes reads pbft_checkpoint_bytes_total for the test domain.
func checkpointBytes(reg *obs.Registry, kind string) uint64 {
	return reg.Counter("pbft_checkpoint_bytes_total", "group=dom", "kind="+kind).Value()
}

// TestCheckpointCostIsFlat: what a checkpoint hashes and serialises does not
// depend on how many messages the queue retains or how large they are — only
// the client table is touched — and the queue's bytes are produced only when
// a peer asks for them.
func TestCheckpointCostIsFlat(t *testing.T) {
	type cost struct{ hashed, serialised uint64 }
	var first *cost
	for _, window := range []int{64, 1024, 4096} {
		for _, payload := range []int{128, 8 << 10} {
			reg := obs.NewRegistry()
			td := newTestDomainCfg(t, 31, DomainConfig{
				N: 4, F: 1, QueueCapacity: 4096, CheckpointInterval: 4, Metrics: reg,
			})
			td.prefill(window, payload)
			s, acks := td.sender(t, "client:a")
			h0, s0 := checkpointBytes(reg, "hashed"), checkpointBytes(reg, "serialised")
			for i := 0; i < 4; i++ { // one checkpoint interval
				td.sendAndWait(t, s, acks, string(make([]byte, payload)))
			}
			td.net.Run(1_000_000)
			got := cost{checkpointBytes(reg, "hashed") - h0, checkpointBytes(reg, "serialised") - s0}
			if n := reg.Counter("pbft_checkpoints_total", "group=dom").Value(); n != 4 {
				t.Fatalf("window %d payload %d: %d checkpoints taken, want one per replica", window, payload, n)
			}
			if first == nil {
				first = &got
			}
			if got != *first || got.hashed == 0 {
				t.Errorf("window %d payload %d: checkpoint cost %+v, want %+v at every size", window, payload, got, *first)
			}
			if got.serialised != got.hashed {
				t.Errorf("window %d payload %d: serialised %d, hashed %d: more than the client table was touched",
					window, payload, got.serialised, got.hashed)
			}

			// A peer asks: now, and only now, the queue is serialised.
			el := td.dom.Elements[0]
			want := uint64(len(el.queue.Capture().Bytes()))
			before := checkpointBytes(reg, "serialised")
			fs := &pbft.FetchState{Seq: 1, Replica: 3}
			pbft.SignMessage(td.replicaAuth(t, 3), fs)
			el.Replica.HandleMessage(pbft.Encode(fs))
			if got := checkpointBytes(reg, "serialised") - before; got != want {
				t.Errorf("window %d payload %d: answering a FetchState serialised %d bytes, want the queue's %d",
					window, payload, got, want)
			}
		}
	}
}

// TestCheckpointCostFlatOverSoak drives three full windows of messages
// through one group: per-checkpoint hashed bytes in the last tenth of the run
// equal those in the first.
func TestCheckpointCostFlatOverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("orders 3 x 4096 messages")
	}
	const capacity, total = 4096, 3 * 4096
	reg := obs.NewRegistry()
	td := newTestDomainCfg(t, 32, DomainConfig{
		N: 4, F: 1, QueueCapacity: capacity, CheckpointInterval: 16, MaxBatch: 16, Metrics: reg,
	})
	const k = 16
	acked := 0
	var senders []*Sender
	for i := 0; i < k; i++ {
		s, err := NewSender(td.dom, fmt.Sprintf("client:%d", i), fmt.Sprintf("sender/%d", i), 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		s.OnAck = func(uint64) { acked++ }
		senders = append(senders, s)
	}
	perCheckpoint := func(rounds int) float64 {
		h0 := checkpointBytes(reg, "hashed")
		c0 := reg.Counter("pbft_checkpoints_total", "group=dom").Value()
		for r := 0; r < rounds; r++ {
			want := acked + k
			for _, s := range senders {
				if _, err := s.Send(make([]byte, 256)); err != nil {
					t.Fatal(err)
				}
			}
			if err := td.net.RunUntil(func() bool { return acked >= want }, 5_000_000); err != nil {
				t.Fatal(err)
			}
		}
		taken := reg.Counter("pbft_checkpoints_total", "group=dom").Value() - c0
		if taken == 0 {
			t.Fatal("no checkpoint in a tenth of the soak")
		}
		return float64(checkpointBytes(reg, "hashed")-h0) / float64(taken)
	}
	rounds := total / k
	decile := rounds / 10
	firstDecile := perCheckpoint(decile)
	perCheckpoint(rounds - 2*decile)
	lastDecile := perCheckpoint(decile)
	if firstDecile != lastDecile {
		t.Fatalf("hashed bytes per checkpoint: first decile %.1f, last decile %.1f", firstDecile, lastDecile)
	}
	if got := td.dom.Elements[0].queue.Len(); got != capacity {
		t.Fatalf("window holds %d messages after the soak, want a full %d", got, capacity)
	}
}

// TestCaptureIsImmutable is a seeded property test of the copy-on-write
// claim: a capture shares the queue's array, and whatever the queue does
// afterwards — append, trim, compact, restore, reset — a capture still held
// serialises to exactly the bytes an eager snapshot gave when it was taken.
func TestCaptureIsImmutable(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 4 + rng.Intn(29)
		q := NewQueue(capacity, nil)
		type held struct {
			c     pbft.Captured
			eager []byte
			d     pbft.Digest
		}
		var captures []held
		compactions, trims := 0, 0
		steps := 8 * capacity // at least two compactions and many trims past capacity
		for i := 0; i < steps; i++ {
			if rng.Intn(3) == 0 {
				c := q.Capture()
				captures = append(captures, held{c: c, eager: c.Bytes(), d: c.Digest()})
			}
			full := q.Len() == capacity
			data := make([]byte, rng.Intn(40))
			rng.Read(data)
			execute(q, fmt.Sprintf("client:%d", rng.Intn(3)), data)
			if full {
				trims++
				if cap(q.window) == 2*q.Len() { // only a compaction leaves exactly this much room
					compactions++
				}
			}
			if rng.Intn(40) == 0 { // a speculative rollback or a state transfer replaces the queue
				if err := q.RestoreSpeculation(q.Capture().Bytes()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if compactions < 2 || trims < capacity {
			t.Fatalf("seed %d: %d compactions, %d trims: the schedule did not exercise the queue", seed, compactions, trims)
		}
		q.Reset()
		execute(q, "client:0", []byte("after reset"))
		for i, h := range captures {
			if !bytes.Equal(h.c.Bytes(), h.eager) {
				t.Fatalf("seed %d: capture %d of %d changed under the queue's later writes", seed, i, len(captures))
			}
			if h.c.Digest() != h.d {
				t.Fatalf("seed %d: capture %d digest changed", seed, i)
			}
			probe := NewQueue(capacity, nil)
			if d, err := probe.SnapshotDigest(h.eager); err != nil || d != h.d {
				t.Fatalf("seed %d: capture %d: SnapshotDigest of its bytes = %v, %v; want its digest %v", seed, i, d, err, h.d)
			}
		}
	}
}

// TestDigestIsPathIndependent: a queue restored from a snapshot reports the
// digests of one that executed the whole history — now, and after it has
// executed on past a trim and a compaction.
func TestDigestIsPathIndependent(t *testing.T) {
	const capacity = 8
	executed := NewQueue(capacity, nil)
	for i := 0; i < 5; i++ {
		execute(executed, "c", []byte{byte(i)})
	}
	restored := NewQueue(capacity, nil)
	if err := restored.Restore(executed.Capture().Bytes()); err != nil {
		t.Fatal(err)
	}
	queues := map[string]*Queue{"executed": executed, "restored": restored}
	for i := 5; i < 40; i++ {
		if i == 20 { // restored, trimmed, then restored once more
			again := NewQueue(capacity, nil)
			if err := again.Restore(restored.Capture().Bytes()); err != nil {
				t.Fatal(err)
			}
			queues["restored twice"] = again
		}
		for _, q := range queues {
			execute(q, "c", []byte{byte(i)})
		}
		want := executed.Capture()
		for name, q := range queues {
			if got := q.Capture(); got.Digest() != want.Digest() || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("after %d messages the %s queue's digest differs from the executed one's", i+1, name)
			}
		}
	}
}

// TestOpDigestChains: a lone op's chain link takes the op digest its
// request carries, a pack's links hash each payload, and the queue that
// executed both agrees, digest for digest, with the one decodeSnapshot
// re-chains from its bytes by hashing every retained message. An op digest
// that is not the op's hash (a replica that hashed something else) is
// caught the same way.
func TestOpDigestChains(t *testing.T) {
	const capacity = 16
	q := NewQueue(capacity, nil)
	// exec runs op as a replica does: with its decoded request's op digest.
	exec := func(op []byte) {
		req := &pbft.Request{ClientID: "client:d", ClientSeq: 1, Op: op}
		q.Execute(req.ClientID, op, req.OpDigest())
	}
	for i := 0; i < 3*capacity; i++ {
		switch i % 3 {
		case 0:
			exec(bytes.Repeat([]byte{byte(i)}, 16<<10+i))
		case 1:
			exec(encodePack([][]byte{[]byte(fmt.Sprint(i)), {}, bytes.Repeat([]byte{byte(i)}, i)}))
		default:
			exec([]byte(fmt.Sprint(i)))
		}
		c := q.Capture()
		rechained, err := decodeSnapshot(c.Bytes(), capacity)
		if err != nil {
			t.Fatal(err)
		}
		if rechained.Digest() != c.Digest() {
			t.Fatalf("after op %d: the executed queue's digest differs from its re-chained snapshot's", i)
		}
	}
	wrong := NewQueue(capacity, nil)
	op := []byte("lone op")
	wrong.Execute("client:d", op, sha256.Sum256([]byte("another op")))
	if d, err := wrong.SnapshotDigest(wrong.Capture().Bytes()); err != nil || d == wrong.Capture().Digest() {
		t.Fatalf("a link over a wrong op digest re-chains to the same digest (err %v)", err)
	}
}

// checkpointLog records every Checkpoint each replica broadcasts.
func checkpointLog(td *testDomain) map[uint64]map[pbft.ReplicaID]pbft.Digest {
	log := make(map[uint64]map[pbft.ReplicaID]pbft.Digest)
	td.net.AddFilter(func(_, _ netsim.NodeID, payload []byte) ([]byte, bool) {
		if m, err := pbft.Decode(payload); err == nil {
			if c, ok := m.(*pbft.Checkpoint); ok {
				if log[c.Seq] == nil {
					log[c.Seq] = make(map[pbft.ReplicaID]pbft.Digest)
				}
				log[c.Seq][c.Replica] = c.StateDigest
			}
		}
		return nil, false
	})
	return log
}

// isolate cuts element i off from the group and from sender id.
func (td *testDomain) isolate(i int, senderID string) {
	var others []netsim.NodeID
	for j, a := range td.dom.Addrs() {
		if j != i {
			others = append(others, a)
		}
	}
	td.net.Partition([]netsim.NodeID{td.dom.Addrs()[i]}, append(others, netsim.NodeID("sender/"+senderID)))
}

// TestRestoredReplicaAgreesAtLaterCheckpoints: a replica brought up to date
// by state transfer and three that executed everything certify the same
// StateDigest at each of the next checkpoints, across trims of the window
// (capacity 6, so every one of them has trimmed).
func TestRestoredReplicaAgreesAtLaterCheckpoints(t *testing.T) {
	td := newTestDomainCfg(t, 33, DomainConfig{
		N: 4, F: 1, QueueCapacity: 6, CheckpointInterval: 4,
	})
	log := checkpointLog(td)
	s, acks := td.sender(t, "client:a")
	td.isolate(3, "client:a")
	for i := 0; i < 9; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("m%d", i))
	}
	td.net.Heal()
	for i := 9; i < 14; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("m%d", i))
	}
	td.net.Run(1_000_000)
	restoredAt := td.dom.Elements[3].Replica.LastExecuted()
	if restoredAt < 8 {
		t.Fatalf("element 3 lastExec = %d: no state transfer happened", restoredAt)
	}
	for i := 14; i < 14+3*4; i++ {
		td.sendAndWait(t, s, acks, fmt.Sprintf("m%d", i))
	}
	td.net.Run(1_000_000)
	agreed := 0
	for seq, byReplica := range log {
		if seq <= restoredAt {
			continue
		}
		mine, ok := byReplica[3]
		if !ok {
			t.Errorf("checkpoint %d: the restored replica took none", seq)
			continue
		}
		for r, d := range byReplica {
			if d != mine {
				t.Errorf("checkpoint %d: restored replica certifies %v, replica %d %v", seq, mine, r, d)
			}
		}
		agreed++
	}
	if agreed < 3 {
		t.Fatalf("compared %d checkpoints after the restore, want at least 3", agreed)
	}
	ref := td.dom.Elements[0].Replica.StateDigest()
	for i, el := range td.dom.Elements {
		if el.Replica.StateDigest() != ref {
			t.Errorf("element %d ends with a different state digest", i)
		}
	}
}

// BenchmarkCheckpoint times one checkpoint — taken by each of four replicas
// and made stable by their quorum — on a queue already holding the named
// window. CheckpointInterval 1 makes every ordered message a checkpoint, so
// an iteration is one agreement round plus the checkpoint; the round is the
// same at every size, and the checkpoint should be too. The latency is
// constant so that the replicas move in lockstep: with jitter, one of them is
// regularly a batch behind when a checkpoint quorum reaches it and fetches
// state, and the benchmark would time serialising the window for it.
func BenchmarkCheckpoint(b *testing.B) {
	for _, window := range []int{64, 1024, 4096} {
		for _, payload := range []struct {
			name string
			size int
		}{{"128B", 128}, {"8KiB", 8 << 10}} {
			b.Run(fmt.Sprintf("%dmsgs×%s", window, payload.name), func(b *testing.B) {
				reg := obs.NewRegistry()
				td := newTestDomainOn(b, netsim.NewNetwork(34, netsim.ConstantLatency(time.Millisecond)), DomainConfig{
					N: 4, F: 1, QueueCapacity: 4096, CheckpointInterval: 1, Metrics: reg,
				})
				td.prefill(window, payload.size)
				for _, el := range td.dom.Elements {
					el.OnDeliver = nil
				}
				s, acks := td.sender(b, "client:a")
				msg := string(make([]byte, payload.size))
				td.sendAndWait(b, s, acks, msg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					td.sendAndWait(b, s, acks, msg)
				}
				b.StopTimer()
				td.net.Run(1_000_000)
				if got := td.dom.Elements[0].Replica.StableCheckpoint(); got < uint64(b.N) {
					b.Fatalf("stable checkpoint %d after %d rounds", got, b.N+1)
				}
				if n := reg.Counter("pbft_state_transfers_total", "group=dom").Value(); n != 0 {
					b.Fatalf("%d state transfers: the timing includes serialising the window", n)
				}
			})
		}
	}
}
