package pbft

import (
	"fmt"

	"itdos/internal/obs/flight"
)

// Castro–Liskov tentative execution: a replica executes a batch as soon as
// it holds a prepared certificate, one commit round before the batch is
// committed. The results are journaled; when the batch commits with the
// same digest the journal is confirmed without re-running the application,
// and when a view change intervenes the application rolls back to the
// committed state. A client that collects 2f+1 matching tentative replies
// may accept them: 2f+1 tentative executions imply a prepared certificate
// at f+1 correct replicas, so the batch survives any view change and
// commits with the same contents.
//
// The one structural constraint is the checkpoint boundary rule: a
// sequence that is 0 mod CheckpointInterval is never speculated, so a
// checkpoint snapshot — taken at commit time — always captures
// exactly-committed application state. Speculation stalls one short of the
// boundary and resumes after the boundary entry commits.

// SpeculativeApp is an optional App extension for speculative execution.
// The replica brackets it with SetTentative(true)/SetTentative(false) so the
// application can tag downstream effects (SRM tags deliveries, letting the
// element mark its replies tentative). RestoreSpeculation replaces
// application state from a snapshot WITHOUT the side effects of a normal
// post-state-transfer Restore (SRM suppresses its resynchronisation replay
// — the rollback path re-executes the confirmed suffix itself).
type SpeculativeApp interface {
	SetTentative(bool)
	RestoreSpeculation(snapshot []byte) error
}

// specResult journals one request's speculative outcome. executed is false
// when the at-most-once check skipped the request (a client
// retransmission); req is retained so a rollback can replay the confirmed
// prefix deterministically.
type specResult struct {
	req      *Request
	executed bool
	result   []byte
}

// specEntry journals one speculated batch.
type specEntry struct {
	digest  Digest
	results []specResult
}

// trySpeculate extends the speculative suffix: starting at specExec+1 it
// executes every consecutive prepared entry, stopping at the first gap,
// unprepared entry, or checkpoint boundary. No-op unless TentativeExecution
// is on and the replica is in normal operation.
func (r *Replica) trySpeculate() {
	if !r.cfg.TentativeExecution || r.inViewChange || r.recovering {
		return
	}
	for {
		next := r.specExec + 1
		if next <= r.lastExec {
			// A state transfer moved lastExec past the speculation cursor.
			r.specExec = r.lastExec
			continue
		}
		if next%r.cfg.CheckpointInterval == 0 {
			// Boundary rule: the boundary entry executes at commit time so
			// its checkpoint snapshot is exactly-committed state.
			return
		}
		en, ok := r.log[next]
		if !ok || en.executed || !r.isPrepared(en) {
			return
		}
		if r.specExec == r.lastExec {
			// Fresh session: remember the committed state to roll back to.
			r.specBase = r.app.Capture()
			r.specBaseSeq = r.lastExec
		}
		r.speculateEntry(next, en)
	}
}

// speculateEntry executes one prepared batch tentatively and journals it.
func (r *Replica) speculateEntry(seq uint64, en *entry) {
	pp := en.prePrepare
	se := &specEntry{digest: pp.Digest, results: make([]specResult, 0, len(pp.Requests))}
	sa, _ := r.app.(SpeculativeApp)
	if sa != nil {
		sa.SetTentative(true)
	}
	for _, req := range pp.Requests {
		dup := false
		if rec := r.clientTable[req.ClientID]; rec != nil && req.ClientSeq <= rec.seq {
			dup = true
		}
		if hi, ok := r.specClient[req.ClientID]; ok && req.ClientSeq <= hi {
			dup = true
		}
		sr := specResult{req: req}
		if !dup {
			sr.executed = true
			sr.result = r.app.Execute(req.ClientID, req.Op)
			r.specClient[req.ClientID] = req.ClientSeq
			if r.OnTentativeExecute != nil {
				r.OnTentativeExecute(seq, req, sr.result)
			}
		}
		se.results = append(se.results, sr)
	}
	if sa != nil {
		sa.SetTentative(false)
	}
	r.specJournal[seq] = se
	r.specExec = seq
	r.mTentative.Inc()
	r.record(flight.KindTentativeExec, pp.View, seq, fmt.Sprintf("n=%d", len(pp.Requests)))
}

// confirmSpeculation resolves a committing batch against the journal. A
// matching digest returns the journaled entry (the commit path reuses its
// results); a mismatch — the view change replaced the window — rolls the
// whole speculative suffix back and returns nil so the batch executes
// normally. Called with lastExec still at seq-1.
func (r *Replica) confirmSpeculation(seq uint64, pp *PrePrepare) *specEntry {
	se, ok := r.specJournal[seq]
	if !ok || seq > r.specExec {
		return nil
	}
	if se.digest != pp.Digest {
		r.rollbackSpeculation()
		return nil
	}
	return se
}

// rollbackSpeculation discards the speculative suffix: the application is
// restored to the session's base snapshot and the journaled operations of
// every CONFIRMED entry since are replayed (their batches committed with
// the speculated digests, so deterministic re-execution reproduces
// committed state exactly). No-op when nothing is speculated ahead.
func (r *Replica) rollbackSpeculation() {
	if r.specExec <= r.lastExec {
		return
	}
	r.mTentRollbacks.Inc()
	r.record(flight.KindTentativeRollback, r.view, r.lastExec,
		fmt.Sprintf("spec=%d", r.specExec))
	if sa, ok := r.app.(SpeculativeApp); ok {
		_ = sa.RestoreSpeculation(r.specBase.Bytes())
	} else {
		_ = r.app.Restore(r.specBase.Bytes())
	}
	for s := r.specBaseSeq + 1; s <= r.lastExec; s++ {
		se := r.specJournal[s]
		if se == nil {
			continue
		}
		for i := range se.results {
			if se.results[i].executed {
				req := se.results[i].req
				r.app.Execute(req.ClientID, req.Op)
			}
		}
	}
	r.specExec = r.lastExec
	r.clearSpecSession()
	if r.OnTentativeRollback != nil {
		r.OnTentativeRollback(r.lastExec)
	}
}

// dropSpeculation voids the speculative suffix without touching the
// application — for paths that replace application state wholesale right
// after (state transfer, recovery).
func (r *Replica) dropSpeculation() {
	fire := r.specExec > r.lastExec
	r.specExec = r.lastExec
	r.clearSpecSession()
	if fire {
		r.mTentRollbacks.Inc()
		r.record(flight.KindTentativeRollback, r.view, r.lastExec, "cause=state-transfer")
		if r.OnTentativeRollback != nil {
			r.OnTentativeRollback(r.lastExec)
		}
	}
}

// clearSpecSession frees the session's base snapshot, journal, and
// per-client speculation table. Cheap no-op when they are already empty.
func (r *Replica) clearSpecSession() {
	r.specBase = nil
	r.specBaseSeq = 0
	if len(r.specJournal) > 0 {
		r.specJournal = make(map[uint64]*specEntry)
	}
	if len(r.specClient) > 0 {
		r.specClient = make(map[string]uint64)
	}
}
