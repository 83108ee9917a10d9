package smiop

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/quorum"
	"itdos/internal/vote"
)

// MessageVal is the unmarshalled content of one GIOP message as the voter
// sees it: operation identity plus the decoded value tree. Two copies are
// equivalent only if they agree on the operation, status and — under the
// stream's float tolerance — the values (paper §3.6).
type MessageVal struct {
	Interface string
	Operation string
	IsReply   bool
	Status    giop.ReplyStatus
	Exception string
	Body      cdr.Value
	// TC is the TypeCode the Body conforms to.
	TC *cdr.TypeCode
	// Msg is the decoded GIOP message this value came from.
	Msg *giop.Message

	// giop is the message's encoding, which Msg aliases.
	giop []byte
}

// msgComparator compares MessageVals: identity fields exactly, value trees
// with the configured float tolerance.
type msgComparator struct {
	epsilon float64
}

// MessageComparator is the comparator a stream votes with at float
// tolerance epsilon (exact when 0). The Group Manager re-votes proofs with
// it, so a proof is judged by the rule that produced the vote.
func MessageComparator(epsilon float64) vote.Comparator { return msgComparator{epsilon: epsilon} }

// Equal implements vote.Comparator.
func (c msgComparator) Equal(a, b cdr.Value) (bool, error) {
	av, okA := a.(*MessageVal)
	bv, okB := b.(*MessageVal)
	if !okA || !okB {
		return false, fmt.Errorf("smiop: comparator needs *MessageVal, got %T, %T", a, b)
	}
	if av.Interface != bv.Interface || av.Operation != bv.Operation ||
		av.IsReply != bv.IsReply || av.Status != bv.Status || av.Exception != bv.Exception {
		return false, nil
	}
	if !av.TC.Equal(bv.TC) {
		return false, nil
	}
	feq := cdr.ExactFloatEq
	if c.epsilon > 0 {
		eps := c.epsilon
		feq = func(x, y float64) bool { return x == y || math.Abs(x-y) <= eps }
	}
	return cdr.EqualValues(av.TC, av.Body, bv.Body, feq)
}

// Describe implements vote.Comparator.
func (c msgComparator) Describe() string {
	if c.epsilon > 0 {
		return fmt.Sprintf("unmarshalled-inexact(ε=%g)", c.epsilon)
	}
	return "unmarshalled-exact"
}

// StreamConfig parameterises an inbound Stream.
type StreamConfig struct {
	// Registry resolves operation signatures for unmarshalling. Required,
	// under byte voting too: the voted message is unmarshalled for its
	// consumer.
	Registry *idl.Registry
	// Epsilon enables inexact float voting when > 0.
	Epsilon float64
	// Mode selects the voter decision policy (default: the paper's eager
	// f+1 rule).
	Mode vote.Mode
	// AutoAdvance lets the stream open a vote when a copy with a request
	// id above the current one arrives (server side, where peers originate
	// request ids). When false, votes open only via ExpectReply (client
	// side).
	AutoAdvance bool
	// ByteVoting bypasses unmarshalling and votes on raw GIOP bytes —
	// the Immune/Rampart behaviour the paper shows breaks under
	// heterogeneity (experiment C2).
	ByteVoting bool
	// VerifySig authenticates the sending element's signature over the
	// digest of its data context (see VerifyFunc). Required.
	VerifySig VerifyFunc
	// SignerOf names the identity VerifySig checks (srcDomain, member)
	// against. An ordered copy whose every fragment the ordering layer
	// authenticated as coming from that identity (Envelope.OrderedBy) is
	// accepted on the strength of that check; nil vouches for nothing.
	SignerOf func(srcDomain string, member uint32) string
	// Metrics, if non-nil, receives per-stream delivery counters. Tracer,
	// if non-nil, wraps Deliver in smiop.deliver / smiop.unmarshal /
	// vote.submit / vote.decide spans (Fig. 2 middle layers). Both are
	// nil-safe.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Flight, if non-nil, receives voting events (decision, fault report,
	// fallback) on the ring named FlightID — the identity of the element
	// (or client) owning this stream. Nil records nothing.
	Flight   *flight.Recorder
	FlightID string
}

// Stream is the inbound half of a connection at one element: it
// authenticates, decrypts, unmarshals and votes the peer domain's message
// copies, emitting one agreed message per request id. This is the
// Voter + Marshal + Queue-Management slice of the Figure 2 stack.
type Stream struct {
	cfg   StreamConfig
	conn  *Connection
	cv    *vote.ConnectionVoter
	frags *reassembler

	// expectedOp records the operation a reply should answer, keyed at
	// Expect time.
	expectedIface, expectedOp string

	// OnMessage receives each voted message exactly once.
	OnMessage func(val *MessageVal, dec *vote.Decision)
	// OnFault receives conflicting-copy evidence (input to
	// change_request, paper §3.6).
	OnFault func(member int, report vote.FaultReport)
	// OnPostDecision receives envelopes for the current request id that
	// arrive after its vote has decided — typically a peer retrying a
	// request whose reply it could not read (e.g. across a rekey). Servers
	// use it to resend the cached reply without re-executing.
	OnPostDecision func(env *Envelope, val *MessageVal)
	// OnFallback fires once per armed vote whose policy has a fallback when
	// the vote stalls — no class can still reach its 2f+1 quorum. The
	// endpoint reacts by re-requesting what the policy names.
	OnFallback func(requestID uint64)
	// CheckSig, if set, checks signatures in place of StreamConfig.VerifySig
	// and says when a memo of earlier verifications answered; those checks
	// count as outcome=memo, apart from verified.
	CheckSig CheckFunc

	// Dropped counts envelopes rejected before voting (decryption failure,
	// malformed GIOP, unknown operation).
	Dropped uint64

	// faultsForwarded tracks how many voter fault reports have been passed
	// to OnFault.
	faultsForwarded int

	// voteOpen tracks whether this stream has an undecided vote, backing
	// the vote_inflight gauge (each stream holds at most one open vote;
	// advancing to a new request id abandons, not closes, the old one).
	voteOpen bool

	// policy is what armed the outstanding vote; fallbackFired ensures its
	// fallback fires at most once.
	policy        ReplyPolicy
	fallbackFired bool

	// decoded holds the distinct messages the current vote has decoded, so
	// that a copy with the same bytes is not decoded again.
	decoded []*MessageVal

	// Delivery counters (nil-safe; nil when unobserved).
	mEnvelopes   *obs.Counter
	mDiscarded   *obs.Counter
	mDropped     *obs.Counter
	mFragments   *obs.Counter
	mOversize    *obs.Counter
	mSubmissions *obs.Counter
	mDecisions   *obs.Counter
	mFaults      *obs.Counter
	hReceived    *obs.Histogram
	gInflight    *obs.Gauge

	// Reply-path counters, labelled by connection id so reuse runs expose
	// per-client asymmetries.
	mReplyFull *obs.Counter
	mFallbacks *obs.Counter

	// What became of each copy's signature check (smiop_sig_checks_total):
	// run and passed, run and failed, answered by a memo of an earlier pass,
	// owed to the ordering layer instead, or spared because a late reply copy
	// equalled the decision.
	mSigVerified  *obs.Counter
	mSigRejected  *obs.Counter
	mSigMemo      *obs.Counter
	mSigVouched   *obs.Counter
	mSigLateEqual *obs.Counter
}

// NewStream builds the inbound pipeline for conn.
func NewStream(conn *Connection, cfg StreamConfig) (*Stream, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("smiop: stream needs an idl.Registry")
	}
	if cfg.VerifySig == nil {
		return nil, fmt.Errorf("smiop: stream needs a signature verifier")
	}
	cv, err := vote.NewConnectionVoter(conn.Peer.N, conn.Peer.F, cfg.Mode)
	if err != nil {
		return nil, err
	}
	s := &Stream{cfg: cfg, conn: conn, cv: cv, frags: newReassembler()}
	if r := cfg.Metrics; r != nil {
		mode := cfg.Mode
		if mode == 0 {
			mode = vote.EagerFPlus1
		}
		s.mEnvelopes = r.Counter("smiop_envelopes_total")
		s.mDiscarded = r.Counter("smiop_discarded_total")
		s.mDropped = r.Counter("smiop_dropped_total")
		s.mFragments = r.Counter("smiop_fragments_total", "dir=in")
		s.mOversize = r.Counter("smiop_oversize_total")
		s.mSubmissions = r.Counter("vote_submissions_total")
		s.mDecisions = r.Counter("vote_decisions_total", "mode="+mode.String())
		s.mFaults = r.Counter("vote_fault_reports_total")
		// How many of the n copies had arrived when the vote decided: the
		// eager-f+1 vs wait distinction made measurable.
		bounds := make([]float64, conn.Peer.N)
		for i := range bounds {
			bounds[i] = float64(i + 1)
		}
		s.hReceived = r.Histogram("vote_decision_received", bounds)
		s.gInflight = r.Gauge("vote_inflight")
		connLabel := fmt.Sprintf("conn=%d", conn.ID)
		s.mReplyFull = r.Counter("smiop_reply_full_total", connLabel)
		s.mFallbacks = r.Counter("smiop_reply_fallback_total", connLabel)
		// An acceptor's stream votes request copies, an initiator's reply
		// copies: the label keeps the two sides of a call apart.
		side := "stream=initiator"
		if cfg.AutoAdvance {
			side = "stream=acceptor"
		}
		s.mSigVerified = r.Counter("smiop_sig_checks_total", "outcome=verified", side)
		s.mSigRejected = r.Counter("smiop_sig_checks_total", "outcome=rejected", side)
		s.mSigMemo = r.Counter("smiop_sig_checks_total", "outcome=memo", side)
		s.mSigVouched = r.Counter("smiop_sig_checks_total", "outcome=vouched", side)
		s.mSigLateEqual = r.Counter("smiop_sig_checks_total", "outcome=late_equal", side)
	}
	s.cfg.VerifySig = func(srcDomain string, member uint32, digest, sig []byte) bool {
		outcome := SigRejected
		if s.CheckSig != nil {
			outcome = s.CheckSig(srcDomain, member, digest, sig)
		} else if cfg.VerifySig(srcDomain, member, digest, sig) {
			outcome = SigVerified
		}
		switch outcome {
		case SigVerified:
			s.mSigVerified.Inc()
		case SigRemembered:
			s.mSigMemo.Inc()
		default:
			s.mSigRejected.Inc()
		}
		return outcome != SigRejected
	}
	return s, nil
}

// Voter exposes the connection voter (stats, tests).
func (s *Stream) Voter() *vote.ConnectionVoter { return s.cv }

func (s *Stream) comparator() vote.Comparator {
	if s.cfg.ByteVoting {
		return vote.ByteExact{}
	}
	return MessageComparator(s.cfg.Epsilon)
}

// Expect arms the vote for requestID under policy p — the one way a
// client-side vote opens. The operation identifies the result TypeCode.
// Expecting the outstanding id again is the retry: after a rekey killed the
// in-flight vote, or when a stalled fast path re-requests full replies
// under the same id. Either way the vote starts over from no copies.
func (s *Stream) Expect(requestID uint64, iface, op string, p ReplyPolicy) error {
	vp := vote.Policy{Reopen: requestID == s.cv.CurrentID()}
	if p.Quorum == QuorumReadOnly {
		vp.Threshold = quorum.ReadOnly(s.conn.Peer.F)
	}
	if err := s.cv.Expect(requestID, s.comparator(), vp); err != nil {
		return err
	}
	s.expectedIface, s.expectedOp = iface, op
	s.policy = p
	s.markVoteOpen()
	s.faultsForwarded = 0
	s.fallbackFired = false
	s.frags.reset()
	clear(s.decoded)
	s.decoded = s.decoded[:0]
	return nil
}

// ExpectReply arms the plain policy for requestID: full copies from every
// member, f+1 decide, nothing to fall back to. The rekey retry and every
// fast-path fallback land here.
func (s *Stream) ExpectReply(requestID uint64, iface, op string) error {
	return s.Expect(requestID, iface, op, ReplyPolicy{})
}

// markVoteOpen / markVoteClosed maintain the vote_inflight gauge.
func (s *Stream) markVoteOpen() {
	if !s.voteOpen {
		s.voteOpen = true
		s.gInflight.Add(1)
	}
}

func (s *Stream) markVoteClosed() {
	if s.voteOpen {
		s.voteOpen = false
		s.gInflight.Add(-1)
	}
}

// drop accounts for an envelope rejected before voting.
func (s *Stream) drop(err error) error {
	s.Dropped++
	s.mDropped.Inc()
	return err
}

// discard accounts for a late or Byzantine copy — indistinguishable, so
// the sender is not penalised (paper §3.6).
func (s *Stream) discard() {
	s.cv.Discarded++
	s.mDiscarded.Inc()
}

// vouched reports whether the ordering layer authenticated env's sender as
// the very identity whose signature the payload carries. That identity
// signed the ordered request around the sealed envelope with the same key,
// and the signature was checked before the request was ordered, so checking
// the inner one would authenticate the same bytes to the same key again. A
// copy that came over a direct channel has no ordered sender and is never
// vouched for.
func (s *Stream) vouched(env *Envelope) bool {
	return env.OrderedBy != "" && s.cfg.SignerOf != nil &&
		env.OrderedBy == s.cfg.SignerOf(env.SrcDomain, env.SrcMember)
}

// authenticate is the one place a full copy is admitted: on the ordering
// layer's word when every fragment had it, on the payload signature
// otherwise.
func (s *Stream) authenticate(env *Envelope, payload *SignedPayload, vouched bool) error {
	if vouched {
		s.mSigVouched.Inc()
		return nil
	}
	return s.Verify(env, payload)
}

// Verify checks payload's signature in env's data context and counts the
// outcome in smiop_sig_checks_total: the check of every copy that is not
// vouched for, the stream's own and a direct read-only request alike.
func (s *Stream) Verify(env *Envelope, payload *SignedPayload) error {
	return payload.Verify(env, s.cfg.VerifySig)
}

// Deliver processes one inbound data envelope through the full pipeline:
// open, reassemble, authenticate, unmarshal, submit. Whatever policy armed
// the vote, a copy takes this one path. A reply copy that arrives after its
// vote decided is compared before it is authenticated, and goes on only if
// it disagrees. Errors are diagnostic: the stream has already accounted for
// the envelope (dropped, discarded or submitted) when Deliver returns.
func (s *Stream) Deliver(env *Envelope) error {
	s.mEnvelopes.Inc()
	sp := s.cfg.Tracer.Start("smiop.deliver",
		fmt.Sprintf("conn=%d", env.ConnID), fmt.Sprintf("member=%d", env.SrcMember))
	defer sp.End()
	if env.FragCount > 1 {
		s.mFragments.Inc()
	}
	if s.cfg.AutoAdvance && env.RequestID > s.cv.CurrentID() {
		if err := s.Expect(env.RequestID, "", "", ReplyPolicy{}); err != nil {
			return err
		}
	}
	if env.RequestID != s.cv.CurrentID() {
		s.discard()
		return nil
	}
	// A fragment whose place is taken is a replay: it is ignored unopened.
	fragment := env.FragCount > 1
	if fragment && s.frags.filled(env) {
		return nil
	}
	plaintext, err := s.conn.OpenData(env)
	if err != nil {
		return s.drop(err)
	}
	if env.Reply {
		s.mReplyFull.Inc()
	}
	// Fragmented messages reassemble before verification; incomplete
	// messages simply wait for their remaining fragments.
	sub := vote.Submission{Member: int(env.SrcMember), Raw: plaintext}
	vouched := s.vouched(env)
	if fragment {
		sub.Raw, vouched, err = s.frags.add(env, plaintext, vouched)
		if errors.Is(err, errOversize) {
			s.mOversize.Inc()
		}
		if err != nil {
			return s.drop(err)
		}
		if sub.Raw == nil {
			return nil
		}
	}
	// Raw is the evidence: signed payload (GIOP + signature).
	payload, err := DecodeSignedPayload(sub.Raw)
	if err != nil {
		return s.drop(err)
	}
	// A reply copy that arrives once its vote has decided can change
	// nothing unless it disagrees: it is compared first, and pays for its
	// signature check only if it is about to become evidence.
	late := env.Reply && s.cv.Decided()
	if !late {
		if err := s.authenticate(env, payload, vouched); err != nil {
			return s.drop(err)
		}
	}
	// Byte voting compares the GIOP bytes.
	if s.cfg.ByteVoting {
		sub.Value = payload.GIOP
	} else {
		val, err := s.unmarshal(payload.GIOP)
		if err != nil {
			return s.drop(err)
		}
		sub.Value = val
	}
	if late {
		if eq, err := s.comparator().Equal(s.cv.Voter().Decision().Value, sub.Value); err == nil && eq {
			s.mSigLateEqual.Inc()
			s.discard()
			return nil
		}
		if err := s.authenticate(env, payload, vouched); err != nil {
			return s.drop(err)
		}
	}
	decidedBefore := s.cv.Decided()
	s.mSubmissions.Inc()
	vsp := s.cfg.Tracer.Start("vote.submit")
	dec, err := s.cv.Submit(env.RequestID, sub)
	vsp.End()
	if err := s.settle(env.RequestID, dec, err); err != nil {
		return err
	}
	if decidedBefore && s.OnPostDecision != nil {
		// Copy arriving after the decision: surface it so acceptors can
		// answer retries idempotently. Conflicting copies were already
		// reported through OnFault.
		pv, _ := sub.Value.(*MessageVal)
		s.OnPostDecision(env, pv)
	}
	return nil
}

// settle handles what one submission produced: new fault reports, then
// the decision or — when no class can still decide — the fallback.
func (s *Stream) settle(requestID uint64, dec *vote.Decision, err error) error {
	if err != nil {
		return err
	}
	s.reportFaults()
	if dec == nil {
		s.maybeFallback(requestID)
		return nil
	}
	return s.deliverDecision(dec)
}

// deliverDecision closes the vote and surfaces the agreed message.
func (s *Stream) deliverDecision(dec *vote.Decision) error {
	s.markVoteClosed()
	if s.OnMessage == nil {
		return nil
	}
	s.mDecisions.Inc()
	s.hReceived.Observe(float64(dec.Received))
	s.cfg.Flight.Append(s.cfg.FlightID, flight.KindVoteDecided, 0, 0,
		s.cv.CurrentID(), fmt.Sprintf("received=%d", dec.Received))
	val, ok := dec.Value.(*MessageVal)
	if !ok {
		// Byte voting compared raw GIOP; consumers still need the message.
		rawPayload, err := DecodeSignedPayload(dec.Raw)
		if err != nil {
			return err
		}
		if val, err = s.unmarshal(rawPayload.GIOP); err != nil {
			return err
		}
	}
	dsp := s.cfg.Tracer.Start("vote.decide",
		fmt.Sprintf("received=%d", dec.Received),
		fmt.Sprintf("supporters=%d", len(dec.Supporters)))
	s.OnMessage(val, dec)
	dsp.End()
	return nil
}

// maybeFallback fires OnFallback exactly once when the armed vote has
// stalled (its 2f+1 quorum is out of reach) and its policy has somewhere to
// fall back to.
func (s *Stream) maybeFallback(requestID uint64) {
	if s.policy.Fallback == FallbackNone || s.fallbackFired || s.OnFallback == nil ||
		requestID != s.cv.CurrentID() || !s.cv.Stalled() {
		return
	}
	s.recordFallback("cause=stall")
	s.OnFallback(requestID)
}

// NoteFallback records an externally-triggered fallback (the caller's
// liveness timeout, which sees silence the voter cannot) on the stream's
// per-connection fallback counter. Idempotent per armed vote.
func (s *Stream) NoteFallback() {
	if s.policy.Fallback != FallbackNone && !s.fallbackFired {
		s.recordFallback("cause=timeout")
	}
}

func (s *Stream) recordFallback(cause string) {
	s.fallbackFired = true
	s.mFallbacks.Inc()
	s.cfg.Flight.Append(s.cfg.FlightID, flight.KindFallback, 0, 0, s.cv.CurrentID(), cause)
}

// unmarshal decodes one copy's GIOP message for the vote. A copy whose bytes
// equal those of a copy this vote already decoded takes that copy's value:
// equal bytes decode to equal values. Copies whose bytes differ, as
// heterogeneous replicas' do, are decoded and compared by value.
func (s *Stream) unmarshal(giopBytes []byte) (*MessageVal, error) {
	for _, v := range s.decoded {
		if bytes.Equal(v.giop, giopBytes) {
			return v, nil
		}
	}
	usp := s.cfg.Tracer.Start("smiop.unmarshal")
	val, err := UnmarshalMessage(s.cfg.Registry, s.expectedIface, s.expectedOp, giopBytes)
	usp.End()
	if err != nil {
		return nil, err
	}
	s.decoded = append(s.decoded, val)
	return val, nil
}

// reportFaults forwards newly observed conflicting copies.
func (s *Stream) reportFaults() {
	if s.OnFault == nil {
		return
	}
	faults := s.cv.Faults()
	for s.faultsForwarded < len(faults) {
		f := faults[s.faultsForwarded]
		s.faultsForwarded++
		s.mFaults.Inc()
		s.cfg.Flight.Append(s.cfg.FlightID, flight.KindFaultReported, 0, 0,
			s.cv.CurrentID(), fmt.Sprintf("member=%d", f.Member))
		s.OnFault(f.Member, f)
	}
}

// UnmarshalMessage decodes one GIOP message into the value a vote compares,
// with reg as the marshalling engine. A request names its own operation; a
// reply carries no operation, so it is read as the answer to iface.op.
func UnmarshalMessage(reg *idl.Registry, iface, op string, giopBytes []byte) (*MessageVal, error) {
	msg, err := giop.Decode(giopBytes)
	if err != nil {
		return nil, fmt.Errorf("smiop: %w", err)
	}
	switch msg.Type {
	case giop.MsgRequest:
		req := msg.Request
		sig, err := reg.Lookup(req.Interface, req.Operation)
		if err != nil {
			return nil, err
		}
		tc := sig.ParamsType()
		body, err := cdr.Unmarshal(tc, req.Body, msg.Order)
		if err != nil {
			return nil, fmt.Errorf("smiop: unmarshal %s.%s params: %w",
				req.Interface, req.Operation, err)
		}
		return &MessageVal{
			Interface: req.Interface, Operation: req.Operation,
			Body: body, TC: tc, Msg: msg, giop: giopBytes,
		}, nil
	case giop.MsgReply:
		rep := msg.Reply
		val := &MessageVal{
			Interface: iface, Operation: op,
			IsReply: true, Status: rep.Status, Exception: rep.Exception,
			TC: cdr.Void, Msg: msg, giop: giopBytes,
		}
		if rep.Status == giop.StatusNoException {
			sig, err := reg.Lookup(iface, op)
			if err != nil {
				return nil, err
			}
			tc := sig.ResultsType()
			body, err := cdr.Unmarshal(tc, rep.Body, msg.Order)
			if err != nil {
				return nil, fmt.Errorf("smiop: unmarshal %s.%s results: %w", iface, op, err)
			}
			val.Body = body
			val.TC = tc
		}
		return val, nil
	default:
		return nil, fmt.Errorf("smiop: unexpected GIOP %s in data envelope", msg.Type)
	}
}
