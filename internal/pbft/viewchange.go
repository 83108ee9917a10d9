package pbft

import (
	"sort"

	"itdos/internal/obs/flight"
	"itdos/internal/quorum"
)

// startViewChange abandons the current view and solicits installation of
// newView. It is triggered by timer expiry (suspected faulty primary), by
// observed primary equivocation, or by f+1 peers already asking for a
// higher view.
func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view && r.inViewChange {
		return
	}
	if newView < r.view {
		return
	}
	r.view = newView
	r.inViewChange = true
	// Speculated-but-uncommitted batches may be re-ordered or dropped by
	// the new view: restore the application to committed state first.
	r.rollbackSpeculation()
	// Abandon the batch under construction: its requests remain in
	// outstanding, so the NEW-VIEW installer re-drives them (either into O
	// via a prepared certificate, or as fresh requests to the new primary).
	r.pending = nil
	for d := range r.pendingSet {
		delete(r.pendingSet, d)
	}
	r.batchTimerArmed = false
	r.setBacklogGauge()
	vc := &ViewChange{
		NewView:         newView,
		LastStable:      r.lowWater,
		CheckpointProof: r.stableProof,
		Prepared:        r.collectPrepared(),
		Replica:         r.cfg.ID,
	}
	r.broadcast(vc)
	r.mViewChanges.Inc()
	r.record(flight.KindViewChange, newView, r.lowWater, "")
	r.recordViewChange(vc)
	// If the new primary stalls, escalate to the next view.
	r.armTimerAlways()
	r.maybeBuildNewView(newView)
}

// collectPrepared gathers prepared certificates for every in-window
// sequence that reached the prepared state, sorted by sequence.
func (r *Replica) collectPrepared() []*PreparedProof {
	var proofs []*PreparedProof
	for seq, en := range r.log {
		if seq <= r.lowWater || !r.isPrepared(en) {
			continue
		}
		prepares := make([]*Prepare, 0, r.quorum()-1)
		agreeing(en.prePrepare, en.prepares, func(p *Prepare) { prepares = append(prepares, p) })
		sort.Slice(prepares, func(i, j int) bool { return prepares[i].Replica < prepares[j].Replica })
		if len(prepares) > r.quorum()-1 {
			prepares = prepares[:r.quorum()-1]
		}
		proofs = append(proofs, &PreparedProof{PrePrepare: en.prePrepare, Prepares: prepares})
	}
	sort.Slice(proofs, func(i, j int) bool {
		return proofs[i].PrePrepare.Seq < proofs[j].PrePrepare.Seq
	})
	return proofs
}

func (r *Replica) onViewChange(vc *ViewChange) {
	if vc.NewView < r.view {
		return
	}
	if !r.verifyViewChange(vc) {
		return
	}
	r.recordViewChange(vc)

	// Join rule: if f+1 distinct replicas want views above ours, move to
	// the smallest such view — we cannot be left behind by a correct
	// majority.
	if !r.inViewChange || vc.NewView > r.view {
		r.maybeJoinViewChange()
	}
	r.maybeBuildNewView(vc.NewView)
}

func (r *Replica) recordViewChange(vc *ViewChange) {
	byRep := r.viewChanges[vc.NewView]
	if byRep == nil {
		byRep = make(map[ReplicaID]*ViewChange)
		r.viewChanges[vc.NewView] = byRep
	}
	byRep[vc.Replica] = vc
}

func (r *Replica) maybeJoinViewChange() {
	// Count distinct replicas demanding any view strictly above ours.
	votes := make(map[ReplicaID]uint64) // replica -> smallest higher view demanded
	for view, byRep := range r.viewChanges {
		if view <= r.view {
			continue
		}
		for id := range byRep {
			if cur, ok := votes[id]; !ok || view < cur {
				votes[id] = view
			}
		}
	}
	if len(votes) < quorum.Vote(r.cfg.F) {
		return
	}
	smallest := uint64(0)
	for _, v := range votes {
		if smallest == 0 || v < smallest {
			smallest = v
		}
	}
	r.startViewChange(smallest)
}

func (r *Replica) maybeBuildNewView(view uint64) {
	if r.Primary(view) != r.cfg.ID || !r.inViewChange || r.view != view {
		return
	}
	byRep := r.viewChanges[view]
	if len(byRep) < r.quorum() {
		return
	}
	vcs := make([]*ViewChange, 0, len(byRep))
	for _, vc := range byRep {
		vcs = append(vcs, vc)
	}
	sort.Slice(vcs, func(i, j int) bool { return vcs[i].Replica < vcs[j].Replica })
	vcs = vcs[:r.quorum()]

	pps := r.computeNewViewPrePrepares(view, vcs)
	nv := &NewView{View: view, ViewChanges: vcs, PrePrepares: pps, Replica: r.cfg.ID}
	r.broadcast(nv)
	r.installNewView(nv)
}

// computeNewViewPrePrepares derives the O set of the PBFT paper: for every
// sequence between the highest stable checkpoint (min-s) and the highest
// prepared sequence (max-s) in the view-change set, re-propose the request
// prepared in the highest previous view, or a null request for gaps.
func (r *Replica) computeNewViewPrePrepares(view uint64, vcs []*ViewChange) []*PrePrepare {
	minS, maxS := viewChangeBounds(vcs)
	var pps []*PrePrepare
	for seq := minS + 1; seq <= maxS; seq++ {
		var best *PreparedProof
		for _, vc := range vcs {
			for _, proof := range vc.Prepared {
				if proof.PrePrepare.Seq != seq {
					continue
				}
				if best == nil || proof.PrePrepare.View > best.PrePrepare.View {
					best = proof
				}
			}
		}
		pp := &PrePrepare{View: view, Seq: seq, Replica: r.Primary(view)}
		if best != nil {
			// Re-propose the prepared batch intact: same requests, same
			// order, same digest — a committed batch must execute with the
			// boundaries it prepared with.
			pp.Digest = best.PrePrepare.Digest
			pp.Requests = best.PrePrepare.Requests
		} // else: null request (zero digest)
		r.sign(pp)
		pps = append(pps, pp)
	}
	return pps
}

func viewChangeBounds(vcs []*ViewChange) (minS, maxS uint64) {
	for _, vc := range vcs {
		if vc.LastStable > minS {
			minS = vc.LastStable
		}
		for _, proof := range vc.Prepared {
			if proof.PrePrepare.Seq > maxS {
				maxS = proof.PrePrepare.Seq
			}
		}
	}
	if maxS < minS {
		maxS = minS
	}
	return minS, maxS
}

func (r *Replica) onNewView(nv *NewView) {
	if nv.View < r.view || (nv.View == r.view && !r.inViewChange) {
		return
	}
	if nv.Replica != r.Primary(nv.View) || nv.Replica == r.cfg.ID {
		return
	}
	// Validate the 2f+1 view changes.
	seen := make(map[ReplicaID]bool)
	for _, vc := range nv.ViewChanges {
		if vc.NewView != nv.View || seen[vc.Replica] {
			return
		}
		if !r.verify(vc) || !r.verifyViewChange(vc) {
			return
		}
		seen[vc.Replica] = true
	}
	if len(seen) < r.quorum() {
		return
	}
	// Recompute O and require it to match what the new primary sent.
	expected := r.computeNewViewPrePrepares(nv.View, nv.ViewChanges)
	if len(expected) != len(nv.PrePrepares) {
		return
	}
	for i, pp := range nv.PrePrepares {
		want := expected[i]
		if pp.View != want.View || pp.Seq != want.Seq || pp.Digest != want.Digest {
			return
		}
		if pp.Replica != r.Primary(nv.View) || !r.verify(pp) {
			return
		}
		// The digest matches a prepared certificate's, which the view
		// changes above carry and verifyViewChange checked.
		if !r.validBatch(pp, true) {
			return
		}
	}
	r.installNewView(nv)
}

func (r *Replica) installNewView(nv *NewView) {
	r.view = nv.View
	r.inViewChange = false
	r.mNewViews.Inc()
	r.record(flight.KindNewView, nv.View, r.lowWater, "")

	minS, maxS := viewChangeBounds(nv.ViewChanges)
	if minS > r.lowWater {
		// Adopt the highest stable checkpoint proven in the view-change set.
		var proof []*Checkpoint
		for _, vc := range nv.ViewChanges {
			if vc.LastStable == minS {
				proof = vc.CheckpointProof
				break
			}
		}
		if minS > r.lastExec {
			r.requestState(minS, proof)
		}
		r.stabilise(minS, proof)
	}

	isPrimary := r.isPrimary()
	if isPrimary && r.seq < maxS {
		r.seq = maxS
	}
	// A log entry belongs to one view, and everything an unexecuted entry
	// holds is from an older one. A proposal the NEW-VIEW does not carry
	// would make the new primary's proposal at its sequence look like
	// equivocation, and an old phase message would stand in for its
	// sender's new one; the requests stay in outstanding and are re-driven
	// below.
	for seq, en := range r.log {
		if !en.executed {
			delete(r.log, seq)
		}
	}
	for _, pp := range nv.PrePrepares {
		if pp.Seq <= r.lowWater || pp.Seq <= r.lastExec {
			continue
		}
		en := r.entryAt(pp.Seq)
		en.prePrepare = pp
		en.sentCommit = false
		en.prepares = make(map[ReplicaID]*Prepare)
		en.commits = make(map[ReplicaID]*Commit)
		for _, req := range pp.Requests {
			r.outstanding[req.Digest()] = req
		}
		if !isPrimary {
			p := &Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: r.cfg.ID}
			r.broadcast(p)
			r.recordPrepare(p)
		}
	}
	// Clear stale view-change state.
	for v := range r.viewChanges {
		if v <= r.view {
			delete(r.viewChanges, v)
		}
	}
	// The install loop replaced log entries wholesale; rebuild the
	// duplicate-detection index from what survived.
	r.reindexLog()
	// Drive outstanding client requests into the new view. A re-proposed
	// batch covers every request inside it.
	reproposed := make(map[Digest]bool)
	for _, pp := range nv.PrePrepares {
		for _, req := range pp.Requests {
			reproposed[req.Digest()] = true
		}
	}
	var pending []*Request
	for d, req := range r.outstanding {
		if !reproposed[d] {
			pending = append(pending, req)
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].ClientID != pending[j].ClientID {
			return pending[i].ClientID < pending[j].ClientID
		}
		return pending[i].ClientSeq < pending[j].ClientSeq
	})
	// A request admitted on a tag or a certificate alone has its signature
	// checked first, and is forgotten if it fails: the new primary would
	// otherwise propose a request that a backup whose tag is bad cannot
	// fall back on, and a backup would relay one that the primary refuses
	// and then hold its view-change timer for it. A request another replica
	// committed is in a prepared certificate, re-proposed above, and never
	// meets this check.
	for _, req := range pending {
		if !r.checkSignature(req) {
			delete(r.outstanding, req.Digest())
			continue
		}
		if isPrimary {
			r.assignOrder(req)
		} else {
			// Relay verbatim to preserve the client's signature.
			r.env.SendReplica(r.Primary(r.view), Encode(req))
		}
	}
	if len(r.outstanding) == 0 {
		r.disarmTimer()
	} else {
		r.armTimerAlways()
	}
	r.tryExecute()
}

// verifyViewChange validates a view change's embedded proofs.
func (r *Replica) verifyViewChange(vc *ViewChange) bool {
	if int(vc.Replica) >= r.cfg.N {
		return false
	}
	if vc.LastStable > 0 {
		if len(vc.CheckpointProof) == 0 {
			return false
		}
		digest := vc.CheckpointProof[0].StateDigest
		if !r.verifyCheckpointProof(vc.LastStable, digest, vc.CheckpointProof) {
			return false
		}
	}
	seenSeq := make(map[uint64]bool)
	for _, proof := range vc.Prepared {
		pp := proof.PrePrepare
		if pp == nil || pp.Seq <= vc.LastStable || pp.Seq > vc.LastStable+r.cfg.WindowSize {
			return false
		}
		if seenSeq[pp.Seq] {
			return false
		}
		seenSeq[pp.Seq] = true
		if pp.Replica != r.Primary(pp.View) || !r.verify(pp) {
			return false
		}
		// Certified by the 2f prepares checked below: the view change is
		// refused whole unless they hold.
		if !r.validBatch(pp, true) {
			return false
		}
		seenRep := make(map[ReplicaID]bool)
		for _, p := range proof.Prepares {
			if p.View != pp.View || p.Seq != pp.Seq || p.Digest != pp.Digest {
				return false
			}
			if p.Replica == r.Primary(pp.View) || seenRep[p.Replica] || int(p.Replica) >= r.cfg.N {
				return false
			}
			if !r.verify(p) {
				return false
			}
			seenRep[p.Replica] = true
		}
		if len(seenRep) < r.quorum()-1 {
			return false
		}
	}
	return true
}
