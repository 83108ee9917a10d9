package replica

import (
	"errors"
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/dprf"
	"itdos/internal/giop"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/pbft"
	"itdos/internal/pool"
	"itdos/internal/seckey"
	"itdos/internal/smiop"
	"itdos/internal/transport"
	"itdos/internal/vote"
)

// waitKind says what a parked ORB thread is waiting for.
type waitKind int

const (
	waitConn waitKind = iota + 1
	waitReply
)

type waitState struct {
	kind   waitKind
	peer   string // waitConn: the target domain
	connID uint64 // waitReply
	reqID  uint64 // waitReply
	// span is the tracer's current span at park time; the driver-side
	// handler that completes the wait re-attaches under it (WithCurrent),
	// stitching asynchronous delivery back into the invocation's trace.
	span *obs.Span
}

// rekeySignal resumes a parked call whose connection was rekeyed under it:
// replies sealed under the dead key can no longer be voted, so the call
// re-sends its request under the new one.
type rekeySignal struct{}

// fallbackSignal resumes a parked call whose vote stalled or timed out
// under a policy with a fallback; the invocation falls back to the ordered
// full-reply path.
type fallbackSignal struct{}

// resendSignal resumes a parked call whose plain vote has stayed undecided
// for a retransmission period.
type resendSignal struct{}

// closedSignal resumes a parked call when its system closes: the call fails.
type closedSignal struct{}

// errClosed is what a call parked at, or made after, System.Close returns.
var errClosed = errors.New("replica: system closed")

// connState is one endpoint's view of a live connection plus its inbound
// voting stream.
type connState struct {
	conn      *smiop.Connection
	stream    *smiop.Stream
	peer      smiop.PeerInfo
	initiator bool

	lastDecision *vote.Decision
	lastVal      *smiop.MessageVal
	// decidedReqID is the request id lastDecision belongs to; faults must
	// only be filed against the decision of their own vote.
	decidedReqID  uint64
	pendingFaults []vote.FaultReport
	reported      map[int]bool

	// cachedReplyID/cachedReplyGIOP hold the last reply this acceptor sent
	// on the connection, so a retried request (same id, e.g. across a
	// rekey) is answered without re-execution — at-most-once semantics.
	cachedReplyID   uint64
	cachedReplyGIOP []byte
}

// shareCollector accumulates Group Manager key shares for one
// (connection, era) until a 2f_gm+1 quorum combines into the
// communication key.
type shareCollector struct {
	bundleMeta *smiop.ShareBundle
	shares     map[int]*dprf.Share
}

// FaultEvent records one change_request this endpoint filed.
type FaultEvent struct {
	PeerDomain string
	Member     int
	ConnID     uint64
	RequestID  uint64
}

// endpoint is the state and behaviour shared by replication domain
// elements and singleton clients: connection management, key-share
// collection, the outbound invocation path, and the ORB-thread scheduler.
type endpoint struct {
	sys      *System
	identity string
	local    smiop.PeerInfo
	member   int
	profile  Profile
	worker   *worker
	sign     func([]byte) []byte

	conns      map[uint64]*connState
	connByPeer map[string]uint64
	collectors map[string]*shareCollector

	// ORB-thread scheduling: tasks (inbound upcalls or client application
	// code) run one at a time; a task parked in a nested invocation blocks
	// later tasks — the single-threaded execution model of paper §2.
	taskQueue []func()
	busy      bool
	waiting   *waitState
	closed    bool // System.Close ran: nothing parks, nothing new runs

	// FaultEvents records every change_request filed (observability).
	FaultEvents []FaultEvent

	// GMShareFaults counts key shares from Group Manager elements that
	// failed verification during Combine.
	GMShareFaults int

	// onPostDecision, if set, handles copies arriving after a vote decided
	// (elements answer request retries from their reply cache).
	onPostDecision func(cs *connState, env *smiop.Envelope)

	// Connection-cache counters (nil-safe; nil when unobserved).
	mConnHits    *obs.Counter
	mConnMisses  *obs.Counter
	mConnRetries *obs.Counter
	mCallResends *obs.Counter // requests re-sent because their plain vote stayed undecided
	mFragsOut    *obs.Counter
	mSigns       *obs.Counter // data and digest signatures made
	mDropped     *obs.Counter // direct-path frames that fail to decode, open or verify

	// Reply fast-path counters.
	mDigestCalls    *obs.Counter
	mReadOnlyCalls  *obs.Counter
	mReadOnlyAborts *obs.Counter
	mTentCalls      *obs.Counter
}

func (ep *endpoint) init(sys *System, identity string, local smiop.PeerInfo, member int, profile Profile) {
	ep.sys = sys
	ep.identity = identity
	ep.local = local
	ep.member = member
	ep.profile = profile
	ep.worker = newWorker()
	priv := sys.privs[identity]
	ep.sign = func(digest []byte) []byte {
		if len(digest) != len(pbft.Digest{}) {
			return nil
		}
		ep.mSigns.Inc()
		return pbft.SignDigest(priv, pbft.Digest(digest))
	}
	ep.conns = make(map[uint64]*connState)
	ep.connByPeer = make(map[string]uint64)
	ep.collectors = make(map[string]*shareCollector)
	if r := sys.cfg.Metrics; r != nil {
		ep.mConnHits = r.Counter("conn_cache_hits_total")
		ep.mConnMisses = r.Counter("conn_cache_misses_total")
		ep.mConnRetries = r.Counter("smiop_conn_retries_total")
		ep.mCallResends = r.Counter("smiop_call_resends_total")
		ep.mFragsOut = r.Counter("smiop_fragments_total", "dir=out")
		ep.mSigns = r.Counter("smiop_signatures_total")
		ep.mDropped = r.Counter("smiop_dropped_total")
		ep.mDigestCalls = r.Counter("digest_replies_armed_total")
		ep.mReadOnlyCalls = r.Counter("readonly_fastpath_total")
		ep.mReadOnlyAborts = r.Counter("readonly_fastpath_aborts_total")
		ep.mTentCalls = r.Counter("tentative_replies_armed_total")
	}
}

// tracer returns the system tracer (nil when tracing is off).
func (ep *endpoint) tracer() *obs.Tracer { return ep.sys.tracer }

// parkWait parks the ORB thread on w. The tracer's current span is saved
// into w and detached so unrelated driver-side work does not nest under a
// parked invocation; it is re-attached when the thread resumes. Once the
// endpoint is closed nothing parks: the wait ends at once in closedSignal.
func (ep *endpoint) parkWait(w *waitState) any {
	if ep.closed {
		return closedSignal{}
	}
	tr := ep.tracer()
	w.span = tr.Current()
	tr.SetCurrent(nil)
	ep.waiting = w
	res := ep.worker.park()
	tr.SetCurrent(w.span)
	return res
}

// --- task scheduling (driver thread) ---

// schedule queues a task for the ORB thread and runs it if idle; a closed
// endpoint runs nothing.
func (ep *endpoint) schedule(task func()) {
	if ep.closed {
		return
	}
	ep.taskQueue = append(ep.taskQueue, task)
	ep.pump()
}

func (ep *endpoint) pump() {
	for !ep.busy && len(ep.taskQueue) > 0 {
		task := ep.taskQueue[0]
		ep.taskQueue = ep.taskQueue[1:]
		ep.busy = true
		if ep.worker.runTask(task) == workerIdle {
			ep.busy = false
		}
	}
}

// resume wakes the parked ORB thread and continues pumping when the task
// completes.
func (ep *endpoint) resume(v any) {
	ep.waiting = nil
	if ep.worker.resumeWith(v) == workerIdle {
		ep.busy = false
		ep.pump()
	}
}

// close fails the parked call, if any, drops the tasks queued behind it and
// joins the ORB goroutine. Driver thread.
func (ep *endpoint) close() error {
	ep.closed = true
	ep.taskQueue = nil
	if ep.waiting != nil {
		ep.resume(closedSignal{})
	}
	return ep.worker.close()
}

// --- outbound path (ORB thread) ---

// Invoke implements orb.Protocol: seal, send, park for the voted reply.
func (ep *endpoint) Invoke(ref orb.ObjectRef, req *giop.Request) (*giop.Reply, cdr.ByteOrder, error) {
	cs, err := ep.ensureConn(ref.Domain)
	if err != nil {
		return nil, 0, err
	}
	reqID := cs.conn.NextRequestID()
	req.RequestID = reqID
	// The reply policy is chosen once, here. The Castro-Liskov reply
	// optimisations apply only on the client edge — a singleton caller
	// invoking a replicated domain, on the first attempt. The extension
	// flags stay clear unless this invocation takes the matching path: with
	// the features off every request keeps the legacy wire form. The ORB
	// sets req.ReadOnly from the registry, so the IDL declaration alone
	// sends an operation down the direct path.
	cfg := &ep.sys.cfg
	fast := ep.local.N == 1 && cs.peer.N > 1
	req.ReadOnly = fast && req.ReadOnly
	req.DigestOK = false
	var direct *pool.Buffer
	if req.ReadOnly {
		// The direct path delivers whole envelopes only (no reassembly
		// across an unordered channel): a request too large for one
		// envelope aborts to the ordered path before anything is sent.
		frames, err := cs.conn.SealGIOPWire(reqID, false,
			func(dst []byte) []byte { return giop.AppendRequest(dst, ep.profile.Order, req) },
			ep.sign, 0)
		if err != nil {
			return nil, 0, err
		}
		if len(frames) == 1 {
			direct = frames[0]
		} else {
			smiop.ReleaseFrames(frames)
			ep.mReadOnlyAborts.Inc()
			req.ReadOnly = false
		}
	}
	var policy smiop.ReplyPolicy
	var armed *obs.Counter
	switch {
	case req.ReadOnly:
		policy, armed = smiop.ReadOnlyReply, ep.mReadOnlyCalls
	case fast && cfg.TentativeExecution:
		// Subsumes digest mode for the same invocation: the speculative
		// reply arrives before a digest vote could close anyway.
		policy, armed = smiop.TentativeReply, ep.mTentCalls
	case fast && cfg.DigestReplies:
		policy = smiop.DigestReply(smiop.DesignatedResponder(reqID, cs.peer.N, func(m int) bool {
			return cs.conn.Expelled(uint32(m))
		}))
		armed = ep.mDigestCalls
		req.DigestOK = true
	}
	if err := cs.stream.Expect(reqID, ref.Interface, req.Operation, policy); err != nil {
		if direct != nil {
			direct.Release()
		}
		return nil, 0, fmt.Errorf("replica: %s: %w", ep.identity, err)
	}
	armed.Inc()
	if direct != nil {
		rsp := ep.tracer().Start("smiop.direct", fmt.Sprintf("req=%d", reqID))
		// One pooled frame serves every destination: each Send takes a
		// reference, which the transport releases once it is done.
		for m := 1; m < cs.peer.N; m++ {
			direct.Retain()
		}
		for m := 0; m < cs.peer.N; m++ {
			ep.sys.tr.Send(netsim.NodeID(ep.identity),
				netsim.NodeID(elementInboxAddr(cs.peer.Name, m)), direct.B, direct)
		}
		rsp.End()
	} else if err := ep.sendOrderedRequest(cs, ref.Domain, req); err != nil {
		return nil, 0, err
	}
	return ep.awaitReply(cs, ref, req, policy)
}

// requestFull arms the plain policy for req.RequestID and multicasts req on
// the ordered path: where the rekey retry, every resend and every fast-path
// fallback land. Under the request's own id, elements that already executed it
// answer from their reply caches, so it still executes at most once.
func (ep *endpoint) requestFull(cs *connState, ref orb.ObjectRef, req *giop.Request) error {
	req.ReadOnly, req.DigestOK = false, false
	if err := cs.stream.ExpectReply(req.RequestID, ref.Interface, req.Operation); err != nil {
		return fmt.Errorf("replica: %s: %w", ep.identity, err)
	}
	return ep.sendOrderedRequest(cs, ref.Domain, req)
}

// sendOrderedRequest encodes, seals, and multicasts req into the peer's
// ordering group, all its frames handed over together. The GIOP message
// marshals directly into the zero-copy seal pipeline, and the ordered sender
// takes the pooled frames over. A singleton caller leaves the payload
// unsigned: its copy is voted alone and can never be proof, and the PBFT
// Request that carries it is signed by the same key, which every element
// takes as the copy's authentication (smiop.Stream's vouched). A member of a
// replicated caller signs, since its copy is voted against its peers' and may
// become a proof item.
func (ep *endpoint) sendOrderedRequest(cs *connState, target string, req *giop.Request) error {
	sign := ep.sign
	if ep.local.N == 1 {
		sign = nil
	}
	ssp := ep.tracer().Start("smiop.seal", fmt.Sprintf("req=%d", req.RequestID))
	frames, err := cs.conn.SealGIOPWire(req.RequestID, false,
		func(dst []byte) []byte { return giop.AppendRequest(dst, ep.profile.Order, req) },
		sign, 0)
	ssp.End()
	if err != nil {
		return err
	}
	if len(frames) > 1 {
		ep.mFragsOut.Add(uint64(len(frames)))
	}
	ep.sendOrderedFrames(target, frames)
	return nil
}

// awaitReply parks the ORB thread for the voted reply. A vote whose policy
// names a fallback and that stalls or times out re-requests full replies
// on the ordered path under the plain policy and parks again; the fallback
// preserves correctness — only the optimisation is abandoned. A plain vote
// that stays undecided re-sends its request, with capped exponential
// backoff: the ordering layer guarantees the request is delivered, not that
// every element could open it (a rekey reaches the two sides of a connection
// by different routes, so a request sealed under a key the elements do not
// hold yet is dropped by all of them alike), nor that the replies arrive.
// A rekey that lands during the call re-sends at once, under the new key.
// Every re-send keeps the request's id: acceptors that already executed it
// answer from their reply caches, so it still executes at most once.
func (ep *endpoint) awaitReply(cs *connState, ref orb.ObjectRef, req *giop.Request,
	policy smiop.ReplyPolicy) (*giop.Reply, cdr.ByteOrder, error) {

	for resends := 0; ; {
		// Fast-path liveness: a silent designated responder, dropped
		// direct requests or stalled speculation never trip the voter's
		// stall detection, so a virtual-time timeout forces the fallback.
		wait, signal := ep.sys.cfg.SendTimeout, any(fallbackSignal{})
		plain := policy.Fallback == smiop.FallbackNone
		if plain {
			wait = transport.Backoff(resends, 2*ep.sys.cfg.SendTimeout, 16*ep.sys.cfg.SendTimeout)
			signal = resendSignal{}
		}
		id := req.RequestID
		timer := ep.sys.tr.After(wait, func() {
			if w := ep.waiting; w == nil || w.kind != waitReply ||
				w.connID != cs.conn.ID || w.reqID != id {
				return
			}
			if plain && cs.stream.Voter().Stalled() {
				return // the replies came and disagree: asking again changes nothing
			}
			ep.resume(signal)
		})
		res := ep.parkWait(&waitState{kind: waitReply, connID: cs.conn.ID, reqID: req.RequestID})
		timer.Stop()
		switch res := res.(type) {
		case *smiop.MessageVal:
			// The voted results go up as the values the vote decoded, in a
			// copy the caller may change: copies arriving after the
			// decision are still compared with the vote's own.
			rep := res.Msg.Reply
			if rep.Status == giop.StatusNoException && res.TC != nil {
				rep.Results, rep.ResultsType = cdr.CloneValue(res.Body), res.TC
			}
			return rep, res.Msg.Order, nil
		case resendSignal:
			// Under the request's own id: elements that executed it answer
			// from their reply caches, the others vote on this copy.
			resends++
			ep.mCallResends.Inc()
			if err := ep.requestFull(cs, ref, req); err != nil {
				return nil, 0, err
			}
		case fallbackSignal:
			cs.stream.NoteFallback() // idempotent when the stream fired it
			if ctrl := ep.sys.itc; ctrl != nil && policy.Digest {
				// A stalled digest vote implicates its designated
				// responder without proving anything — weak signal.
				ctrl.ObserveFallback(cs.peer.Name, policy.Responder)
			}
			if policy.Fallback == smiop.FallbackFreshID {
				req.RequestID = cs.conn.NextRequestID()
			}
			policy = smiop.ReplyPolicy{}
			if err := ep.requestFull(cs, ref, req); err != nil {
				return nil, 0, err
			}
		case rekeySignal:
			resends, policy = 0, smiop.ReplyPolicy{}
			if err := ep.requestFull(cs, ref, req); err != nil {
				return nil, 0, err
			}
		case closedSignal:
			return nil, 0, fmt.Errorf("%w: %s call %d", errClosed, ep.identity, req.RequestID)
		default:
			return nil, 0, fmt.Errorf("replica: %s: unexpected resume %T", ep.identity, res)
		}
	}
}

// ensureConn returns the connection to peer, establishing one through the
// Group Manager if needed (Figure 3, steps 1-3). Runs on the ORB thread
// and may park.
func (ep *endpoint) ensureConn(peer string) (*connState, error) {
	if id, ok := ep.connByPeer[peer]; ok {
		ep.mConnHits.Inc()
		return ep.conns[id], nil
	}
	ep.mConnMisses.Inc()
	csp := ep.tracer().Start("conn.establish", "peer="+peer)
	defer csp.End()
	open := &smiop.OpenRequest{Initiator: ep.local.Name, Target: peer}
	env := &smiop.Envelope{
		Kind:      smiop.KindOpenRequest,
		SrcDomain: ep.local.Name,
		SrcMember: uint32(ep.member),
		Payload:   open.Encode(),
	}
	payload := env.Encode()
	osp := ep.tracer().Start("gm.open_request")
	ep.sendOrdered(GMDomainName, payload)
	osp.End()
	// Establishment liveness: the open_request rides the retransmitting
	// PBFT client, but the Group Manager's share bundles to a singleton
	// travel the direct (lossy) channel — a lost bundle would park this
	// thread forever. Retransmit the open_request with capped exponential
	// backoff; the Group Manager's handling is idempotent and simply
	// redistributes the current era's shares. The timer never fires on a
	// healthy network (establishment completes well inside the base
	// delay), and a stopped virtual timer pops as a schedule-neutral no-op.
	var retryTimer netsim.Timer
	var arm func(attempt int)
	arm = func(attempt int) {
		d := transport.Backoff(attempt, 2*ep.sys.cfg.SendTimeout, 16*ep.sys.cfg.SendTimeout)
		retryTimer = ep.sys.tr.After(d, func() {
			if w := ep.waiting; w == nil || w.kind != waitConn || w.peer != peer {
				return
			}
			ep.mConnRetries.Inc()
			ep.sendOrdered(GMDomainName, payload)
			arm(attempt + 1)
		})
	}
	arm(0)
	res := ep.parkWait(&waitState{kind: waitConn, peer: peer})
	retryTimer.Stop()
	switch res := res.(type) {
	case *connState:
		return res, nil
	case closedSignal:
		return nil, fmt.Errorf("%w: %s connecting to %s", errClosed, ep.identity, peer)
	default:
		return nil, fmt.Errorf("replica: %s: unexpected resume %T", ep.identity, res)
	}
}

// sendOrdered multicasts one message's payloads into target's ordering
// group. Safe from either coroutine (they are mutually exclusive). The
// ordering is traced as a detached srm.order span ended by the PBFT
// acknowledgement of the last payload.
func (ep *endpoint) sendOrdered(target string, payloads ...[]byte) {
	osp := ep.tracer().StartDetached("srm.order", "target="+target)
	ep.sys.sendOrdered(ep.identity, target, payloads, osp)
}

// sendOrderedFrames is sendOrdered over pooled frames, which it takes over.
func (ep *endpoint) sendOrderedFrames(target string, frames []*pool.Buffer) {
	osp := ep.tracer().StartDetached("srm.order", "target="+target)
	ep.sys.sendOrderedFrames(ep.identity, target, frames, osp)
}

// --- inbound path (driver thread) ---

// handleData routes a voted-stream data envelope.
func (ep *endpoint) handleData(env *smiop.Envelope) {
	cs, ok := ep.conns[env.ConnID]
	if !ok {
		return
	}
	// A copy for the awaited reply continues the parked invocation: nest
	// its delivery spans under the span saved at park time.
	if w := ep.waiting; w != nil && w.kind == waitReply && w.connID == env.ConnID {
		defer ep.tracer().WithCurrent(w.span)()
	}
	// Deliver errors are accounted in the stream counters; nothing to do.
	_ = cs.stream.Deliver(env)
}

// onVoted handles a voted (agreed) message on a connection.
func (ep *endpoint) onVoted(cs *connState, val *smiop.MessageVal, dec *vote.Decision,
	onRequest func(cs *connState, val *smiop.MessageVal)) {

	cs.lastDecision = dec
	cs.lastVal = val
	cs.decidedReqID = cs.stream.Voter().CurrentID()
	pend := cs.pendingFaults
	cs.pendingFaults = nil
	for _, f := range pend {
		ep.fileChangeRequest(cs, f)
	}
	if val.IsReply {
		w := ep.waiting
		if w != nil && w.kind == waitReply && w.connID == cs.conn.ID &&
			val.Msg.Reply != nil && val.Msg.Reply.RequestID == w.reqID {
			rsp := ep.tracer().Start("reply", fmt.Sprintf("req=%d", w.reqID))
			ep.resume(val)
			rsp.End()
		}
		return
	}
	if onRequest != nil {
		onRequest(cs, val)
	}
}

// onFault handles a conflicting-copy report from a voting stream. The
// stream reports pre-decision conflicts just before delivering the
// decision itself, so a report for a vote whose decision has not been
// seen yet is deferred until onVoted installs it.
func (ep *endpoint) onFault(cs *connState, report vote.FaultReport) {
	if cs.lastDecision == nil || cs.decidedReqID != cs.stream.Voter().CurrentID() {
		cs.pendingFaults = append(cs.pendingFaults, report)
		return
	}
	ep.fileChangeRequest(cs, report)
}

// fileChangeRequest accuses a faulty peer member to the Group Manager. A
// singleton endpoint must attach proof (the signed messages that exposed
// the fault); a replication domain member accuses bare, and the Group
// Manager counts f+1 matching accusations (paper §3.6).
func (ep *endpoint) fileChangeRequest(cs *connState, report vote.FaultReport) {
	if cs.reported == nil {
		cs.reported = make(map[int]bool)
	}
	if cs.reported[report.Member] {
		return
	}

	cr := &smiop.ChangeRequest{
		TargetDomain: cs.peer.Name,
		Accused:      uint32(report.Member),
		ConnID:       cs.conn.ID,
		RequestID:    cs.stream.Voter().CurrentID(),
		Reply:        cs.initiator, // initiators vote replies, acceptors requests
	}
	if cs.lastVal != nil {
		cr.Interface = cs.lastVal.Interface
		cr.Operation = cs.lastVal.Operation
	}
	if ep.local.N == 1 {
		// Singleton accuser: attach the accused's signed message plus the
		// agreeing signed messages.
		if item, ok := proofItem(report.Member, report.Evidence); ok {
			cr.Proof = append(cr.Proof, item)
		}
		dec := cs.lastDecision
		for i, m := range dec.Supporters {
			if item, ok := proofItem(m, dec.SupporterRaws[i]); ok {
				cr.Proof = append(cr.Proof, item)
			}
		}
		// The Group Manager's §3.6 bar is f+2 proof items (the accused plus
		// f+1 agreeing signed messages). Digest-phase reports cannot meet it
		// — their supporters are bare digests, not signed full messages.
		provable := len(cr.Proof) >= cs.peer.F+2
		if ctrl := ep.sys.itc; ctrl != nil {
			// Graduated response: the observation feeds the controller's
			// suspicion state; the controller files the retained evidence
			// once the member crosses the expulsion bar. cs.reported stays
			// clear — repetition is the signal.
			var acc *smiop.ChangeRequest
			if provable {
				acc = cr
			}
			ctrl.ObserveFault(cs.peer.Name, report.Member, acc)
			return
		}
		if !provable {
			// Filing would only be rejected; skip without marking the
			// member reported so a later provable report still files.
			return
		}
	}
	cs.reported[report.Member] = true
	env := &smiop.Envelope{
		Kind:      smiop.KindChangeRequest,
		SrcDomain: ep.local.Name,
		SrcMember: uint32(ep.member),
		Payload:   cr.Encode(),
	}
	ep.sendOrdered(GMDomainName, env.Encode())
	ep.FaultEvents = append(ep.FaultEvents, FaultEvent{
		PeerDomain: cs.peer.Name,
		Member:     report.Member,
		ConnID:     cs.conn.ID,
		RequestID:  cr.RequestID,
	})
}

func proofItem(member int, raw []byte) (smiop.ProofItem, bool) {
	payload, err := smiop.DecodeSignedPayload(raw)
	if err != nil {
		return smiop.ProofItem{}, false
	}
	return smiop.ProofItem{
		Member: uint32(member),
		GIOP:   payload.GIOP,
		Sig:    payload.Sig,
	}, true
}

// --- key share handling (driver thread) ---

// handleBundle processes one Group Manager element's key-share bundle.
// myShare selects this endpoint's sealed share within the bundle.
// onRequest is the upcall sink wired into new connections' streams.
func (ep *endpoint) handleBundle(b *smiop.ShareBundle,
	onRequest func(cs *connState, val *smiop.MessageVal)) {

	gmIdx := int(b.GMMember)
	if gmIdx < 0 || gmIdx >= ep.sys.gmInfo.N {
		return
	}
	var sealed []byte
	var peer smiop.PeerInfo
	var initiator bool
	switch ep.local.Name {
	case b.Initiator.Name:
		if ep.member >= len(b.Shares) {
			return
		}
		sealed = b.Shares[ep.member]
		peer = b.Target
		initiator = true
	case b.Target.Name:
		if ep.member >= len(b.Shares) {
			return
		}
		sealed = b.Shares[ep.member]
		peer = b.Initiator
		initiator = false
	default:
		return
	}
	if len(sealed) == 0 {
		// No share for us: we have been keyed out of this era.
		return
	}
	if cs, ok := ep.conns[b.ConnID]; ok && b.Era <= cs.conn.KeyEra() {
		return // stale era or re-announcement of the current one
	}

	// Shares completing a parked connection establishment trace under the
	// span saved at park time (the Fig. 3 steps of a cold call).
	if w := ep.waiting; w != nil && w.kind == waitConn {
		defer ep.tracer().WithCurrent(w.span)()
	}
	ssp := ep.tracer().Start("gm.share",
		fmt.Sprintf("gm_member=%d", gmIdx), fmt.Sprintf("conn=%d", b.ConnID),
		fmt.Sprintf("era=%d", b.Era))
	defer ssp.End()

	gmIdentity := GMElementIdentity(gmIdx)
	plain, err := ep.sys.openShare(gmIdentity, ep.identity, b.ConnID, b.Era, sealed)
	if err != nil {
		return // forged or corrupted share
	}
	share, err := dprf.DecodeShare(plain)
	if err != nil || share.Party != gmIdx {
		return
	}
	key := collectorKey(b.ConnID, b.Era)
	col, ok := ep.collectors[key]
	if !ok {
		col = &shareCollector{bundleMeta: b, shares: make(map[int]*dprf.Share)}
		ep.collectors[key] = col
	}
	col.shares[gmIdx] = share
	if len(col.shares) < ep.sys.gmParams().Quorum() {
		return
	}
	shares := make([]*dprf.Share, 0, len(col.shares))
	for _, s := range col.shares {
		shares = append(shares, s)
	}
	ssp.End() // quorum reached: the final share hand-off is complete
	ksp := ep.tracer().Start("key.combine", fmt.Sprintf("shares=%d", len(shares)))
	combined, corrupt, err := dprf.Combine(ep.sys.gmParams(), shares)
	ksp.End()
	if err != nil {
		return // wait for more shares
	}
	ep.GMShareFaults += len(corrupt)
	if ctrl := ep.sys.itc; ctrl != nil {
		// Attribute tampered shares to the issuing GM elements: weak,
		// non-transferable evidence (the combiner cannot prove the seal's
		// contents to a third party), so it raises suspicion only.
		for _, gm := range corrupt {
			ctrl.ObserveShareTamper(gm)
		}
	}
	delete(ep.collectors, key)
	commKey, err := seckey.KeyFromBytes(combined[:])
	if err != nil {
		return
	}
	ep.installConn(col.bundleMeta, peer, initiator, commKey, onRequest)
}

func collectorKey(connID, era uint64) string {
	return fmt.Sprintf("%d/%d", connID, era)
}

// installConn creates or rekeys the connection for a combined key and
// resumes any ORB thread parked on connection establishment.
func (ep *endpoint) installConn(b *smiop.ShareBundle, peer smiop.PeerInfo, initiator bool,
	key seckey.Key, onRequest func(cs *connState, val *smiop.MessageVal)) {

	isp := ep.tracer().Start("conn.install",
		fmt.Sprintf("conn=%d", b.ConnID), fmt.Sprintf("era=%d", b.Era))
	defer isp.End()

	expelledPeer, expelledLocal := b.ExpelledTarget, b.ExpelledInitiator
	if !initiator {
		expelledPeer, expelledLocal = b.ExpelledInitiator, b.ExpelledTarget
	}
	exp := make([]int, 0, len(expelledPeer))
	for _, m := range expelledPeer {
		exp = append(exp, int(m))
	}
	// Both sides also track the local domain's expulsions so the designated
	// responder rotation (digest replies) converges to the same member on
	// the client and on every element.
	expLocal := make([]int, 0, len(expelledLocal))
	for _, m := range expelledLocal {
		expLocal = append(expLocal, int(m))
	}

	if cs, ok := ep.conns[b.ConnID]; ok {
		// Rekey: fresh key era, expelled members locked out. An in-flight
		// call on this connection can no longer complete (its reply may be
		// sealed under the dead key): it re-sends under the new one.
		cs.conn.Rekey(b.Era, key, exp)
		cs.conn.ExpelLocal(expLocal)
		if w := ep.waiting; w != nil && w.kind == waitReply && w.connID == b.ConnID {
			ep.resume(rekeySignal{})
		}
		return
	}

	conn, err := smiop.NewConnection(b.ConnID, ep.local, ep.member, peer, key)
	if err != nil {
		return
	}
	if b.Era > 0 {
		// Established mid-history: jump straight to the announced era.
		conn.Rekey(b.Era, key, exp)
		conn.ExpelLocal(expLocal)
	}
	stream, err := smiop.NewStream(conn, smiop.StreamConfig{
		Registry:    ep.sys.registry,
		Epsilon:     ep.sys.cfg.Epsilon,
		Mode:        ep.sys.cfg.VoteMode,
		AutoAdvance: !initiator,
		ByteVoting:  ep.sys.cfg.ByteVoting,
		VerifySig:   ep.sys.verifyData,
		SignerOf:    ep.sys.dataSigner,
		Metrics:     ep.sys.cfg.Metrics,
		Tracer:      ep.sys.tracer,
		Flight:      ep.sys.cfg.Flight,
		FlightID:    ep.identity,
	})
	if err != nil {
		return
	}
	cs := &connState{conn: conn, stream: stream, peer: peer, initiator: initiator}
	stream.OnMessage = func(val *smiop.MessageVal, dec *vote.Decision) {
		ep.onVoted(cs, val, dec, onRequest)
	}
	stream.CheckSig = ep.sys.checkData
	stream.OnFault = func(member int, report vote.FaultReport) {
		ep.onFault(cs, report)
	}
	// The stream fires this only for a vote whose policy has a fallback; a
	// stalled plain vote keeps waiting.
	stream.OnFallback = func(requestID uint64) {
		if w := ep.waiting; w != nil && w.kind == waitReply &&
			w.connID == cs.conn.ID && w.reqID == requestID {
			ep.resume(fallbackSignal{})
		}
	}
	if ep.onPostDecision != nil {
		stream.OnPostDecision = func(env *smiop.Envelope, _ *smiop.MessageVal) {
			ep.onPostDecision(cs, env)
		}
	}
	ep.conns[b.ConnID] = cs
	if initiator {
		ep.connByPeer[peer.Name] = b.ConnID
	}
	if w := ep.waiting; w != nil && w.kind == waitConn && w.peer == peer.Name && initiator {
		ep.resume(cs)
	}
}

// Conn returns the endpoint's connection state for a connection id
// (nil if unknown). Primarily for tests and benchmarks.
func (ep *endpoint) Conn(id uint64) *smiop.Connection {
	if cs, ok := ep.conns[id]; ok {
		return cs.conn
	}
	return nil
}

// ConnTo returns the initiated connection id to a peer domain.
func (ep *endpoint) ConnTo(peer string) (uint64, bool) {
	id, ok := ep.connByPeer[peer]
	return id, ok
}
