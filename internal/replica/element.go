package replica

import (
	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
	"itdos/internal/smiop"
	"itdos/internal/srm"
)

// Element is one replication domain element: the full Figure-2 stack in
// one process image. Inbound messages arrive in total order from the SRM
// queue, pass the per-connection decrypt→unmarshal→vote pipeline, and
// surface as ORB upcalls on the element's single application thread;
// outbound requests and replies are signed, sealed and multicast.
type Element struct {
	endpoint

	dr      *DomainRuntime
	Adapter *orb.Adapter
	srmEl   *srm.Element
	caller  *orb.Client

	// held buffers ordered data envelopes that arrived before their
	// connection's key material; holding preserves global delivery order
	// so upcall interleaving stays identical across elements. Each entry
	// keeps the tentativeness of its original delivery: the flag is a
	// property of WHEN the queue delivered the message, so a later drain
	// must not re-sample it.
	held    []heldEnv
	holding bool

	// tentDelivery is true while the element is processing a message the
	// queue delivered speculatively (prepared but not committed). Upcalls
	// scheduled during such a delivery produce tentative replies.
	tentDelivery bool

	// inUpcall is true while a transport upcall to the element's ordering
	// replica runs; the full replies it produces wait in pending until it
	// returns, then share one signed Merkle root (flushReplies). A reply
	// produced outside an upcall is signed at once.
	inUpcall bool
	pending  []pendingReply
	hLeaves  *obs.Histogram // smiop_reply_leaves: replies per signature made

	// Desynced is set when queue garbage collection outran this element
	// (it must be expelled; paper §3.1).
	Desynced bool

	// Delivered counts totally-ordered messages consumed.
	Delivered uint64
	// Upcalls counts voted requests dispatched to servants.
	Upcalls uint64
	// ReadOnlyUpcalls counts read-only fast-path requests served off the
	// direct channel (never mixed into Upcalls: they are unordered).
	ReadOnlyUpcalls uint64
}

func newElement(sys *System, dr *DomainRuntime, member int, profile Profile) (*Element, error) {
	el := &Element{dr: dr}
	el.init(sys, ElementIdentity(dr.Spec.Name, member), dr.Info, member, profile)
	el.Adapter = orb.NewAdapter(sys.registry)
	el.Adapter.ResultTransform = func(op *idl.Operation, results []cdr.Value) []cdr.Value {
		return profile.PerturbResults(op, results)
	}
	el.caller = orb.NewClient(sys.registry, el, profile.Order)
	el.caller.Metrics = sys.cfg.Metrics
	el.onPostDecision = el.onPostDecisionHook
	el.srmEl = dr.Dom.Elements[member]
	el.srmEl.OnDeliver = el.onDeliver
	el.srmEl.OnDesync = func(gapStart, gapEnd uint64) { el.Desynced = true }
	el.setHeldGauge() // register the series at zero, not on first stall
	el.hLeaves = sys.cfg.Metrics.Histogram("smiop_reply_leaves", []float64{1, 2, 4, 8, 16})
	// Direct (unordered) receive address for the read-only fast path. The
	// node exists even with the feature off; the handler gates on config.
	sys.tr.AddNode(netsim.NodeID(elementInboxAddr(dr.Spec.Name, member)),
		netsim.HandlerFunc(func(_ netsim.NodeID, payload []byte) { el.onDirectInbox(payload) }))
	return el, nil
}

// Identity returns the element's global identity ("domain/rN").
func (el *Element) Identity() string { return el.identity }

// Profile returns the element's platform profile.
func (el *Element) Profile() Profile { return el.profile }

// Caller returns the element's client-side ORB for nested invocations
// (exposed to servants through the CallContext as well).
func (el *Element) Caller() *orb.Client { return el.caller }

// onDeliver consumes one totally-ordered message (driver thread).
func (el *Element) onDeliver(seq uint64, sender string, data []byte) {
	el.Delivered++
	if el.Desynced {
		return
	}
	env, err := smiop.DecodeEnvelope(data)
	if err != nil {
		return
	}
	switch env.Kind {
	case smiop.KindKeyShare:
		el.onKeyShare(sender, env)
	case smiop.KindData:
		// Like a key share's, a data envelope's sender was authenticated by
		// the ordering transport; the stream takes its word where it names
		// the identity the envelope claims.
		env.OrderedBy = sender
		tent := el.srmEl.Queue().Tentative()
		if el.holding {
			el.held = append(el.held, heldEnv{env: env, tent: tent})
			el.setHeldGauge()
			return
		}
		el.processData(env, tent)
	default:
		// open_request / change_request are Group Manager business.
	}
}

// heldEnv is one key-stalled envelope plus the tentativeness of the
// delivery that carried it.
type heldEnv struct {
	env  *smiop.Envelope
	tent bool
}

func (el *Element) onKeyShare(sender string, env *smiop.Envelope) {
	// Only the Group Manager may distribute key shares; the sender
	// identity was authenticated by the ordering transport.
	gmDomain, gmIdx, ok := el.sys.memberOf(sender)
	if !ok || gmDomain != GMDomainName {
		return
	}
	bundle, err := smiop.DecodeShareBundle(env.Payload)
	if err != nil || int(bundle.GMMember) != gmIdx {
		return
	}
	// A reply is sealed under the key of the era that produced it.
	el.flushReplies()
	before := len(el.conns)
	el.handleBundle(bundle, el.onInboundRequest)
	if len(el.conns) != before || el.rekeyHappened(bundle) {
		el.drainHeld()
	}
}

func (el *Element) rekeyHappened(b *smiop.ShareBundle) bool {
	cs, ok := el.conns[b.ConnID]
	return ok && cs.conn.KeyEra() == b.Era && b.Era > 0
}

func (el *Element) processData(env *smiop.Envelope, tent bool) {
	if _, ok := el.conns[env.ConnID]; !ok {
		// Key material not combined yet: stall the pipeline to keep the
		// upcall order identical on every element.
		el.holding = true
		el.held = append(el.held, heldEnv{env: env, tent: tent})
		el.setHeldGauge()
		return
	}
	el.tentDelivery = tent
	el.handleData(env)
	el.tentDelivery = false
}

// setHeldGauge publishes the depth of the key-stalled envelope buffer.
func (el *Element) setHeldGauge() {
	el.sys.cfg.Metrics.Gauge("element_held_envelopes", "domain="+el.local.Name).
		Set(float64(len(el.held)))
}

func (el *Element) drainHeld() {
	if !el.holding && len(el.held) == 0 {
		return
	}
	el.holding = false
	held := el.held
	el.held = nil
	el.setHeldGauge()
	for i, h := range held {
		if el.holding {
			el.held = append(el.held, held[i:]...)
			el.setHeldGauge()
			return
		}
		el.processData(h.env, h.tent)
	}
}

// onInboundRequest dispatches a voted request as an ORB upcall. The
// tentativeness of the triggering delivery is captured NOW: the serve
// closure may run after the delivery bracket closed.
func (el *Element) onInboundRequest(cs *connState, val *smiop.MessageVal) {
	el.Upcalls++
	el.sys.cfg.Metrics.Counter("element_upcalls_total", "domain="+el.local.Name).Inc()
	tentative := el.tentDelivery
	el.schedule(func() { el.serve(cs, val, tentative) })
}

// serve runs on the ORB thread: dispatch to the servant, marshal the reply
// in the platform byte order, sign, seal, and send it back to the peer.
func (el *Element) serve(cs *connState, val *smiop.MessageVal, tentative bool) {
	req := val.Msg.Request
	if req == nil {
		return
	}
	usp := el.tracer().Start("orb.upcall",
		"op="+val.Interface+"."+val.Operation, "element="+el.identity)
	defer usp.End()
	args, ok := val.Body.([]cdr.Value)
	if !ok {
		args = nil
	}
	reply := el.Adapter.DispatchValues(req.ObjectKey, val.Interface, val.Operation,
		req.RequestID, args, el.caller)
	if !req.ResponseExpected {
		return
	}
	// A reply produced during a speculative delivery is flagged tentative
	// on the wire; the client needs 2f+1 matching copies to accept it.
	reply.Tentative = tentative
	// The results marshal once, into the message the cache keeps.
	giopBytes := giop.EncodeReply(el.profile.Order, reply)
	// The reply is cached for retries and fallbacks. The cached bytes keep
	// the tentative flag as sent, so retried votes compare identical copies
	// across the group.
	cs.cachedReplyID = req.RequestID
	cs.cachedReplyGIOP = giopBytes
	el.sendReply(cs, req.RequestID, giopBytes)
}

// onDirectInbox handles a read-only fast-path request arriving on the
// direct (unordered) channel — driver thread. Anything malformed, unkeyed,
// or not eligible is dropped: the client's fallback timer turns a dropped
// direct request into an ordered retry, so dropping is always safe. A frame
// that fails to decode, open or verify, or whose kind this inbox does not
// take, is counted (smiop_dropped_total), and its signature check is counted
// as a voted copy's (smiop_sig_checks_total).
func (el *Element) onDirectInbox(payload []byte) {
	if el.Desynced {
		return
	}
	env, err := smiop.DecodeEnvelope(payload)
	if err != nil {
		el.mDropped.Inc()
		return
	}
	if env.Kind != smiop.KindData {
		el.mDropped.Inc()
		return
	}
	if env.Reply || env.FragCount > 1 {
		return
	}
	// The delivery is this inbox's alone: it opens in place.
	env.Owned = true
	cs, ok := el.conns[env.ConnID]
	if !ok || cs.peer.N != 1 {
		// The direct request outran the ordered key-share delivery, or the
		// peer is not a singleton client edge.
		return
	}
	plaintext, err := cs.conn.OpenData(env)
	if err != nil {
		el.mDropped.Inc()
		return
	}
	sp, err := smiop.DecodeSignedPayload(plaintext)
	if err != nil || cs.stream.Verify(env, sp) != nil {
		el.mDropped.Inc()
		return
	}
	msg, err := giop.Decode(sp.GIOP)
	if err != nil || msg.Request == nil || !msg.Request.ReadOnly {
		return
	}
	req := msg.Request
	// Defence in depth: the registry, not the sender, decides what is
	// read-only. A flagged mutating operation never bypasses ordering.
	op, err := el.sys.registry.Lookup(req.Interface, req.Operation)
	if err != nil || !op.ReadOnly {
		return
	}
	el.srmEl.Replica.NoteReadOnlyBypass()
	el.ReadOnlyUpcalls++
	el.sys.cfg.Metrics.Counter("element_readonly_upcalls_total", "domain="+el.local.Name).Inc()
	el.schedule(func() { el.serveReadOnly(cs, req, msg.Order) })
}

// serveReadOnly dispatches a read-only request on the ORB thread and sends
// the reply directly to the client. It never touches the reply cache: the
// at-most-once machinery belongs to the ordered path, and re-executing a
// read-only operation is harmless by definition.
func (el *Element) serveReadOnly(cs *connState, req *giop.Request, order cdr.ByteOrder) {
	usp := el.tracer().Start("orb.upcall",
		"op="+req.Interface+"."+req.Operation, "element="+el.identity, "readonly=1")
	defer usp.End()
	reply := el.Adapter.Dispatch(req, order, el.caller, el.profile.Order)
	// The reply is not cached (read-only path), so it marshals directly into
	// the zero-copy seal pipeline with no standalone GIOP buffer.
	frames, err := cs.conn.SealGIOPWire(req.RequestID, true,
		func(dst []byte) []byte { return giop.AppendReply(dst, el.profile.Order, reply) },
		el.sign, 0)
	if err != nil {
		return
	}
	if len(frames) > 1 {
		el.mFragsOut.Add(uint64(len(frames)))
	}
	for _, frame := range frames {
		el.sys.tr.Send(netsim.NodeID(el.identity),
			netsim.NodeID(clientInboxAddr(cs.peer.Name)), frame.B, frame)
	}
}

// pendingReply is a full reply waiting for its upcall's root signature.
type pendingReply struct {
	cs        *connState
	requestID uint64
	giop      []byte
}

// sendReply sends a full reply: at the end of the running transport upcall,
// under the root signature it shares with the upcall's other replies, or at
// once, signed alone, outside one.
func (el *Element) sendReply(cs *connState, requestID uint64, giopBytes []byte) {
	el.pending = append(el.pending, pendingReply{cs: cs, requestID: requestID, giop: giopBytes})
	if !el.inUpcall {
		el.flushReplies()
	}
}

// flushReplies signs and sends the pending replies, up to MaxReplyLeaves
// under one root signature, each hashed once into its leaf. A reply alone
// gets a plain signature over its leaf: its bytes are an unbatched reply's.
func (el *Element) flushReplies() {
	pending := el.pending
	for len(pending) > 0 {
		batch := pending[:min(len(pending), smiop.MaxReplyLeaves)]
		pending = pending[len(batch):]
		el.hLeaves.Observe(float64(len(batch)))
		leaves := make([][32]byte, len(batch))
		for i, r := range batch {
			c := r.cs.conn
			leaves[i] = smiop.DataSigningDigest(c.ID, r.requestID, c.Local.Name,
				uint32(c.LocalMember), true, r.giop)
		}
		if len(batch) == 1 {
			el.sealReply(batch[0], el.sign(leaves[0][:]))
			continue
		}
		sigs, err := smiop.SignReplyBatch(leaves, el.sign)
		if err != nil {
			continue
		}
		for i, r := range batch {
			el.sealReply(r, sigs[i])
		}
	}
	clear(el.pending)
	el.pending = el.pending[:0]
}

// sealReply seals a reply and its signature under the connection's current
// key (fragmenting large messages) and routes it back to the peer. Frames
// seal in pooled buffers, which the transport (direct) or the ordered sender
// takes over.
func (el *Element) sealReply(r pendingReply, sig []byte) {
	cs := r.cs
	frames, err := cs.conn.SealSignedDataWire(r.requestID, true, r.giop, sig, 0)
	if err != nil {
		return
	}
	if len(frames) > 1 {
		el.mFragsOut.Add(uint64(len(frames)))
	}
	if cs.peer.N == 1 {
		// Singleton client: every element replies directly and the client
		// votes on the copies (paper §3.2).
		for _, frame := range frames {
			el.sys.tr.Send(netsim.NodeID(el.identity),
				netsim.NodeID(clientInboxAddr(cs.peer.Name)), frame.B, frame)
		}
		return
	}
	// Replicated peer: the reply is multicast into the peer's ordering,
	// like every message to a replication domain, its frames together.
	el.sendOrderedFrames(cs.peer.Name, frames)
}

// onPostDecisionHook answers a retried request (same id, arriving after
// its vote decided) from the reply cache — the request is not re-executed.
func (el *Element) onPostDecisionHook(cs *connState, env *smiop.Envelope) {
	if env.Reply || cs.cachedReplyGIOP == nil || env.RequestID != cs.cachedReplyID {
		return
	}
	el.sendReply(cs, cs.cachedReplyID, cs.cachedReplyGIOP)
}

// ensure interface compliance
var _ orb.Protocol = (*Element)(nil)
