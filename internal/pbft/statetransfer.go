package pbft

import (
	"fmt"
	"slices"

	"itdos/internal/cdr"
	"itdos/internal/obs/flight"
)

// Recover models a proactive restart from clean state (SecureSMART-style
// periodic hygiene): every piece of soft ordering state — the message
// log, collected checkpoints, snapshots, client table, and application
// state — is discarded, and the replica rebuilds from a proven peer
// checkpoint. Only the configuration and identity key survive, as they
// would a real restart from read-only storage. The replica immediately
// solicits state from its peers; if none has a stable checkpoint yet, the
// next checkpoint quorum it observes triggers the normal lag-driven state
// transfer instead. OnRecovered fires once the replica has both restored
// a proven checkpoint and executed a normally committed entry beyond it;
// until then the replica abstains from initiating view changes (it cannot
// distinguish a faulty primary from its own missing history) and the
// group's liveness rests on the non-recovering 2f+1. A recovery therefore
// completes only while the group is ordering traffic.
//
// The caller (the intrusion-tolerance controller) is responsible for
// rotation discipline: at most f replicas of a group recovering at once,
// and not the active primary, so the remaining 2f+1 keep the watermark
// window live while the recovering replica is out.
func (r *Replica) Recover() {
	r.mRecoveries.Inc()
	r.record(flight.KindRecoveryStart, r.view, r.lastExec, "")
	r.recovering = true
	// r.view deliberately survives; peers' traffic re-teaches it anyway.
	r.seq = 0
	r.lastExec = 0
	r.lowWater = 0
	r.log = make(map[uint64]*entry)
	r.checkpoints = make(map[uint64]map[ReplicaID]*Checkpoint)
	r.stableProof = nil
	r.clientTable = make(map[string]*clientRecord)
	r.outstanding = make(map[Digest]*Request)
	r.pending = nil
	r.pendingSet = make(map[Digest]bool)
	r.ppIndex = make(map[Digest]uint64)
	r.viewChanges = make(map[uint64]map[ReplicaID]*ViewChange)
	r.inViewChange = false
	r.fetchSeq = 0
	// Speculative state is soft state like the rest: the app reset below
	// discards tentative executions along with everything else.
	r.specExec = 0
	r.clearSpecSession()
	if ra, ok := r.app.(interface{ Reset() }); ok {
		ra.Reset()
	}
	r.snapshots = map[uint64]*checkpointState{0: r.captureState()}
	// Ask every peer for its stable checkpoint. fetchSeq stays 0 so a
	// later checkpoint quorum can still drive requestState if nobody
	// answers (e.g. no checkpoint has stabilised yet).
	r.mStateTransfers.Inc()
	r.broadcast(&FetchState{Seq: 1, Replica: r.cfg.ID})
}

// Recovering reports whether a Recover-initiated rebuild is still in
// progress.
func (r *Replica) Recovering() bool { return r.recovering }

func (r *Replica) requestState(seq uint64, proof []*Checkpoint) {
	if seq <= r.fetchSeq {
		return
	}
	r.fetchSeq = seq
	r.mStateTransfers.Inc()
	fs := &FetchState{Seq: seq, Replica: r.cfg.ID}
	r.sign(fs)
	data := Encode(fs)
	for _, cp := range proof {
		if cp.Replica != r.cfg.ID {
			r.env.SendReplica(cp.Replica, data)
		}
	}
}

// onFetchState answers with the stable checkpoint's state. The bytes are
// serialised and signed once per stable checkpoint, when the first peer
// asks, and a peer that asks again is answered again only after this
// replica has executed something since: a repeated FetchState costs a
// correct replica nothing, while a requester whose reply was lost is still
// served once the group moves.
func (r *Replica) onFetchState(fs *FetchState) {
	if r.lowWater < fs.Seq || len(r.stableProof) == 0 {
		// A lagging peer asks as soon as it holds a checkpoint's quorum,
		// which can be before this replica holds it, and it does not ask
		// for that checkpoint again: if this replica has taken it, answer
		// when it is stable.
		if cs, ok := r.snapshots[fs.Seq]; ok && !slices.Contains(cs.waiting, fs.Replica) {
			cs.waiting = append(cs.waiting, fs.Replica)
		}
		return
	}
	cs, ok := r.snapshots[r.lowWater]
	if !ok {
		return
	}
	if at, asked := cs.servedAt[fs.Replica]; asked && at == r.lastExec {
		return
	}
	if cs.wire == nil {
		app := cs.app.Bytes()
		r.mCkptSerialised.Add(uint64(len(app)))
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteOctets(app)
		e.WriteOctets(cs.clients)
		sd := &StateData{
			Seq: r.lowWater, Snapshot: e.Bytes(),
			Proof: r.stableProof, Replica: r.cfg.ID,
		}
		r.sign(sd)
		cs.wire = Encode(sd)
		cs.servedAt = make(map[ReplicaID]uint64)
	}
	cs.servedAt[fs.Replica] = r.lastExec
	r.env.SendReplica(fs.Replica, cs.wire)
}

// onStateData installs a peer's stable checkpoint. Nothing changes until the
// received bytes have been parsed, digested (App.SnapshotDigest and the
// client table's hash, no side effects) and matched against 2f+1 signed
// checkpoints: Restore replaces the application wholesale and, for the SRM
// queue, replays it to the consumer.
func (r *Replica) onStateData(sd *StateData) {
	if sd.Seq <= r.lastExec {
		return
	}
	app, clients, err := splitState(sd.Snapshot)
	if err != nil {
		r.mRejectDecode.Inc()
		return
	}
	appDigest, err := r.app.SnapshotDigest(app)
	if err != nil {
		r.mRejectDecode.Inc()
		return
	}
	digest := stateDigest(appDigest, clients)
	r.mCkptHashed.Add(uint64(len(app) + len(clients)))
	for _, cp := range sd.Proof {
		if cp.Seq == sd.Seq && cp.StateDigest != digest {
			r.mRejectDigest.Inc() // not the state this certificate names
			return
		}
	}
	if !r.verifyCheckpointProof(sd.Seq, digest, sd.Proof) {
		r.mRejectProof.Inc()
		return
	}
	table, err := decodeClientTable(clients)
	if err != nil {
		r.mRejectDecode.Inc()
		return
	}
	// The restore below replaces application state wholesale; any
	// speculative suffix built on the old state is void.
	r.dropSpeculation()
	if err := r.app.Restore(app); err != nil {
		r.mRejectDecode.Inc()
		return
	}
	r.clientTable = table
	r.lastExec = sd.Seq
	r.snapshots[sd.Seq] = &checkpointState{digest: digest, app: r.app.Capture(), clients: clients}
	r.stabilise(sd.Seq, sd.Proof)
	if r.seq < sd.Seq {
		r.seq = sd.Seq
	}
	// Anything we thought was outstanding may have executed remotely.
	r.pruneOutstanding()
	r.tryExecute()
	// Note recovery is NOT declared complete here: a restored checkpoint
	// proves nothing about requests ordered since it was taken, and a
	// replica that resumed view-change duty while still gapped would
	// start spurious view changes. executeEntry clears recovering on the
	// first normally committed execution — definitive proof the replica
	// is contiguous with the live ordering stream again.
}

// verifyCheckpointProof checks a 2f+1 matching, correctly signed
// checkpoint certificate.
func (r *Replica) verifyCheckpointProof(seq uint64, digest Digest, proof []*Checkpoint) bool {
	seen := make(map[ReplicaID]bool)
	for _, cp := range proof {
		if cp.Seq != seq || cp.StateDigest != digest || seen[cp.Replica] {
			return false
		}
		if cp.Replica < 0 || int(cp.Replica) >= r.cfg.N {
			return false
		}
		if !r.verify(cp) {
			return false
		}
		seen[cp.Replica] = true
	}
	return len(seen) >= r.quorum()
}

// splitState parses the state a StateData carries — the application
// snapshot, then the client table — into its two byte strings.
func splitState(buf []byte) (app, clients []byte, err error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	if app, err = d.ReadOctets(); err != nil {
		return nil, nil, fmt.Errorf("pbft: state snapshot: %w", err)
	}
	if clients, err = d.ReadOctets(); err != nil {
		return nil, nil, fmt.Errorf("pbft: state client table: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, nil, fmt.Errorf("pbft: state: %d trailing bytes", d.Remaining())
	}
	return app, clients, nil
}
