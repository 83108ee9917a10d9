package srm

import (
	"bytes"
	"testing"
)

// fuzzCapacity is the queue capacity FuzzQueueSnapshot decodes against.
const fuzzCapacity = 8

// snapshotSeeds returns queue snapshots worth starting from: empty, partly
// filled, full and trimmed (a non-zero base link), and cut or padded copies.
func snapshotSeeds() [][]byte {
	q := NewQueue(fuzzCapacity, nil)
	seeds := [][]byte{q.Capture().Bytes()}
	for i := 0; i < 3*fuzzCapacity; i++ {
		execute(q, "client:a", bytes.Repeat([]byte{byte(i)}, i%5))
		if i == 2 || i == fuzzCapacity-1 || i == 3*fuzzCapacity-1 {
			seeds = append(seeds, q.Capture().Bytes())
		}
	}
	full := seeds[len(seeds)-1]
	return append(seeds, full[:len(full)-3], full[:13], append(append([]byte(nil), full...), 0))
}

// FuzzQueueSnapshot feeds arbitrary bytes to the snapshot decoder a peer's
// StateData reaches. SnapshotDigest must never panic, and must be the whole
// check: whenever it succeeds, Restore of the same bytes succeeds, and the
// restored queue reports exactly that digest — so verifying the digest before
// restoring verifies what is restored.
func FuzzQueueSnapshot(f *testing.F) {
	for _, seed := range snapshotSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewQueue(fuzzCapacity, nil)
		execute(q, "client:z", []byte("prior state"))
		prior := q.Capture()
		digest, err := q.SnapshotDigest(data)
		if got := q.Capture(); got.Digest() != prior.Digest() {
			t.Fatal("SnapshotDigest changed the queue")
		}
		if err != nil {
			if q.Restore(data) == nil {
				t.Fatal("Restore accepted a snapshot SnapshotDigest refused")
			}
			if got := q.Capture(); got.Digest() != prior.Digest() {
				t.Fatal("a refused Restore changed the queue")
			}
			return
		}
		if err := q.Restore(data); err != nil {
			t.Fatalf("SnapshotDigest accepted what Restore refuses: %v", err)
		}
		restored := q.Capture()
		if restored.Digest() != digest {
			t.Fatalf("restored queue reports digest %v, SnapshotDigest said %v", restored.Digest(), digest)
		}
		// CDR padding is not part of the state, so data need not be the
		// canonical bytes — but the canonical bytes must name the same state.
		if again, err := q.SnapshotDigest(restored.Bytes()); err != nil || again != digest {
			t.Fatalf("re-serialised queue digests to %v, %v; want %v", again, err, digest)
		}
	})
}
