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

// verify authenticates m as received by this replica of its group.
func (r *Replica) verify(m Message) bool {
	return verifyIn(r.cfg.Auth, m, r.cfg.ID, r.ids)
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
// the requests to it, wherever a pre-prepare is admitted (onPrePrepare,
// verifyViewChange, onNewView): the digest must cover the batch, every
// request must carry a valid client signature, and a Byzantine primary may
// not stuff the same request into a batch twice, nor order a request over
// MaxRequestBytes or a batch over MaxBatchBytes. An empty batch must carry
// the null digest (view-change gap filler). The sizes are checked before
// any signature.
func (r *Replica) validBatch(pp *PrePrepare) bool {
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
		if !r.verify(req) {
			return false
		}
	}
	return true
}
