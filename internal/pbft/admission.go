package pbft

// HandleMessage decodes, authenticates and dispatches one wire message.
// Malformed or badly-authenticated messages are dropped (Byzantine senders
// own this code path; it must never panic or corrupt state). A phase message
// or checkpoint that would be dropped unread is dropped before it is
// authenticated: once a round has its quorum, the stragglers are most of the
// phase traffic. So is a request over MaxRequestBytes, which no correct
// replica orders: it is never forwarded and arms no timer.
func (r *Replica) HandleMessage(data []byte) {
	m, err := Decode(data)
	if err != nil {
		return
	}
	if req, ok := m.(*Request); ok && req.Size() > MaxRequestBytes {
		return
	}
	if r.stalePhase(m) || !r.verify(m) {
		return
	}
	r.dispatch(m)
}

// verify authenticates m as received by this replica of its group. A
// request that arrives on its own — from its client, or relayed by a peer —
// is checked on its signature: it may start an ordering round here or arm
// this replica's view-change timer, and a tag alone would let a faulty
// client make backups wait for a request the primary refuses.
func (r *Replica) verify(m Message) bool {
	if req, ok := m.(*Request); ok {
		return r.checkSignature(req)
	}
	return verifyIn(r.cfg.Auth, m, r.cfg.ID, r.ids)
}

// checkSignature verifies req's client signature once: a request checked
// before passes on its mark (sigChecked).
func (r *Replica) checkSignature(req *Request) bool {
	if req.sigChecked {
		return true
	}
	if !verifyIn(r.cfg.Auth, req, r.cfg.ID, r.ids) {
		return false
	}
	req.sigChecked = true
	r.mAdmitSig.Inc()
	return true
}

// admitRequest is how a backup admits a request a primary proposes: on its
// own slot of the tag vector, and on the signature when that slot is wrong
// or the vector is not one slot per replica. The primary checked the
// signature on arrival, so an honest primary proposes nothing a backup
// cannot fall back on.
func (r *Replica) admitRequest(req *Request) bool {
	if requestTagValid(r.cfg.Auth, req, r.cfg.ID, r.cfg.N) {
		r.mAdmitTag.Inc()
		return true
	}
	return r.checkSignature(req)
}

// stalePhase reports whether m is a prepare, commit or checkpoint that
// cannot change state whatever its authenticator: a phase message not of the
// current view in normal operation, outside the window, a prepare claiming
// to be the primary's (the pre-prepare stands in for it), a second one from
// the same replica, or for an entry already executed; a prepare for an entry
// that already holds a prepared certificate in this view (2f prepares
// suffice, and the commit went out with the certificate); a checkpoint at or
// below the stable one, or a second one from the same replica. It reads
// plain fields only and creates nothing.
func (r *Replica) stalePhase(m Message) bool {
	var view, seq uint64
	var from ReplicaID
	prepare := false
	switch msg := m.(type) {
	case *Prepare:
		view, seq, from, prepare = msg.View, msg.Seq, msg.Replica, true
	case *Commit:
		view, seq, from = msg.View, msg.Seq, msg.Replica
	case *Checkpoint:
		_, dup := r.checkpoints[msg.Seq][msg.Replica]
		return dup || msg.Seq <= r.lowWater
	default:
		return false
	}
	if r.inViewChange || view != r.view || !r.inWindow(seq) {
		return true
	}
	if prepare && from == r.Primary(view) {
		return true
	}
	en := r.log[seq]
	if en == nil {
		return false
	}
	dup := false
	if prepare {
		_, dup = en.prepares[from]
		dup = dup || en.prePrepare != nil && en.prePrepare.View == view && r.isPrepared(en)
	} else {
		_, dup = en.commits[from]
	}
	return dup || en.executed
}

func (r *Replica) dispatch(m Message) {
	switch msg := m.(type) {
	case *Request:
		r.onRequest(msg)
	case *PrePrepare:
		r.onPrePrepare(msg)
	case *Prepare:
		r.recordPrepare(msg)
	case *Commit:
		r.recordCommit(msg)
	case *Checkpoint:
		r.recordCheckpoint(msg)
	case *ViewChange:
		r.onViewChange(msg)
	case *NewView:
		r.onNewView(msg)
	case *FetchState:
		r.onFetchState(msg)
	case *StateData:
		r.onStateData(msg)
	case *FetchEntry:
		r.onFetchEntry(msg)
	}
}

// validBatch checks a pre-prepare's piggybacked batch against its digest.
// The primary's signature covers the header alone, so this is what binds
// the requests to it, wherever a pre-prepare is admitted: the digest must
// cover the batch, and a Byzantine primary may not stuff the same request
// into a batch twice, nor order a request over MaxRequestBytes or a batch
// over MaxBatchBytes. An empty batch must carry the null digest (view-change
// gap filler). The sizes are checked before any authenticator.
//
// Each request must then be authentic, which certified settles. A proposal
// a backup meets in normal operation (onPrePrepare) is not: each request is
// admitted on its tag or signature (admitRequest). A batch inside a prepared
// certificate (verifyViewChange), or bound by its digest to one (a new
// view's re-proposals, onNewView), is: 2f+1 replicas prepared it, so at
// least f+1 correct ones admitted every request in it, and a replica whose
// own tag is bad must not refuse what the group prepared — Castro–Liskov's
// argument for MAC-authenticated requests.
func (r *Replica) validBatch(pp *PrePrepare, certified bool) bool {
	if len(pp.Requests) == 0 {
		return pp.Digest.IsNull()
	}
	if BatchDigest(pp.Requests) != pp.Digest {
		return false
	}
	size := 0
	for _, req := range pp.Requests {
		if req.Size() > MaxRequestBytes {
			return false
		}
		size += req.Size()
	}
	if size > MaxBatchBytes {
		return false
	}
	seen := make(map[Digest]bool, len(pp.Requests))
	for _, req := range pp.Requests {
		d := req.Digest()
		if seen[d] {
			return false
		}
		seen[d] = true
	}
	if certified {
		r.mAdmitCert.Add(uint64(len(pp.Requests)))
		return true
	}
	for _, req := range pp.Requests {
		if !r.admitRequest(req) {
			return false
		}
	}
	return true
}
