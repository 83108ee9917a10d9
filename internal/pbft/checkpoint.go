package pbft

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"itdos/internal/cdr"
)

// checkpointState is what this replica keeps of one of its own checkpoints.
// digest is the StateDigest its Checkpoint message certifies:
// H("itdos/pbft-state/2" ‖ app digest ‖ H(clients)).
type checkpointState struct {
	digest  Digest
	app     Captured
	clients []byte // client table, canonical (see clientTableBytes)
	// wire is the encoded, signed StateData answering a FetchState, built
	// when the first peer asks; servedAt is this replica's lastExec when it
	// last answered each peer. Both go with the record in stabilise.
	wire     []byte
	servedAt map[ReplicaID]uint64
	// waiting are the peers that asked for this checkpoint before it was
	// stable here, in arrival order; stabilise answers them.
	waiting []ReplicaID
}

// stateDigest combines an application digest and a serialised client table
// into the digest a checkpoint certifies.
func stateDigest(app Digest, clients []byte) Digest {
	table := sha256.Sum256(clients)
	b := make([]byte, 0, 96)
	b = append(b, "itdos/pbft-state/2"...)
	b = append(b, app[:]...)
	b = append(b, table[:]...)
	return sha256.Sum256(b)
}

// clientTableBytes canonically serialises the client table, which is part of
// replicated state (at-most-once semantics must survive a state transfer, as
// in Castro–Liskov): every record, sorted by client id. Deliberately the
// simple form — tens of bytes per client, re-serialised per checkpoint.
func (r *Replica) clientTableBytes() []byte {
	ids := make([]string, 0, len(r.clientTable))
	for id := range r.clientTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(uint32(len(ids)))
	for _, id := range ids {
		rec := r.clientTable[id]
		e.WriteString(id)
		e.WriteULongLong(rec.seq)
		e.WriteBoolean(rec.hasReply)
		e.WriteOctets(rec.result)
	}
	return e.Bytes()
}

// minClientRecordBytes is the least a client record occupies on the wire
// (empty id and result): what bounds a received table's claimed count.
const minClientRecordBytes = 4 + 1 + 8 + 1 + 4

func decodeClientTable(buf []byte) (map[string]*clientRecord, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("pbft: state client table: %w", err)
	}
	if int(n) > d.Remaining()/minClientRecordBytes {
		return nil, fmt.Errorf("pbft: client table of %d records in %d bytes", n, d.Remaining())
	}
	table := make(map[string]*clientRecord, n)
	for i := 0; i < int(n); i++ {
		id, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		rec := &clientRecord{}
		if rec.seq, err = d.ReadULongLong(); err != nil {
			return nil, err
		}
		if rec.hasReply, err = d.ReadBoolean(); err != nil {
			return nil, err
		}
		if rec.result, err = readOctetsCopy(d); err != nil {
			return nil, err
		}
		table[id] = rec
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("pbft: state client table: %d trailing bytes", d.Remaining())
	}
	return table, nil
}

// captureState records replica state as of now: the application by
// reference, the client table by value.
func (r *Replica) captureState() *checkpointState {
	app := r.app.Capture()
	clients := r.clientTableBytes()
	r.mCkptSerialised.Add(uint64(len(clients)))
	r.mCkptHashed.Add(uint64(len(clients)))
	return &checkpointState{digest: stateDigest(app.Digest(), clients), app: app, clients: clients}
}

func (r *Replica) takeCheckpoint(seq uint64) {
	cs := r.captureState()
	r.snapshots[seq] = cs
	c := &Checkpoint{Seq: seq, StateDigest: cs.digest, Replica: r.cfg.ID}
	r.broadcast(c)
	r.mCheckpoints.Inc()
	r.recordCheckpoint(c)
}

func (r *Replica) recordCheckpoint(c *Checkpoint) {
	byRep := r.checkpoints[c.Seq]
	if byRep == nil {
		byRep = make(map[ReplicaID]*Checkpoint)
		r.checkpoints[c.Seq] = byRep
	}
	if _, dup := byRep[c.Replica]; dup {
		return
	}
	byRep[c.Replica] = c
	// Only the arriving checkpoint's digest can have just reached quorum; at
	// most one digest can reach it at all (2·(2f+1) > 3f+1).
	var proof []*Checkpoint
	for _, cp := range byRep {
		if cp.StateDigest == c.StateDigest {
			proof = append(proof, cp)
		}
	}
	if len(proof) < r.quorum() {
		return
	}
	sort.Slice(proof, func(i, j int) bool { return proof[i].Replica < proof[j].Replica })
	proof = proof[:r.quorum()]
	if c.Seq > r.lastExec {
		// We are behind the group: transfer state.
		r.requestState(c.Seq, proof)
		return
	}
	// Only stabilise on our own digest; a mismatch means divergence (should
	// be impossible for a correct replica).
	if own, ok := r.snapshots[c.Seq]; ok && own.digest == c.StateDigest {
		r.stabilise(c.Seq, proof)
	}
}

func (r *Replica) stabilise(seq uint64, proof []*Checkpoint) {
	if seq <= r.lowWater {
		return
	}
	r.lowWater = seq
	r.stableProof = append([]*Checkpoint(nil), proof...)
	for s := range r.log {
		if s <= seq {
			delete(r.log, s)
		}
	}
	for s := range r.checkpoints {
		if s <= seq {
			delete(r.checkpoints, s)
		}
	}
	for s := range r.snapshots {
		if s < seq {
			delete(r.snapshots, s)
		}
	}
	r.reindexLog()
	if cs, ok := r.snapshots[seq]; ok {
		waiting := cs.waiting
		cs.waiting = nil
		for _, id := range waiting {
			r.onFetchState(&FetchState{Seq: seq, Replica: id})
		}
	}
	r.flushPending(nil)
}
