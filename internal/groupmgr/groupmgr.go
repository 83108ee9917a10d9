// Package groupmgr implements the ITDOS Group Manager (paper §2, §3.3,
// §3.5, §3.6): the replicated, intrusion-tolerant service that governs
// replication domain membership, establishes virtual connections, and
// generates communication keys with threshold cryptography.
//
// The Group Manager is itself a replication domain, but its elements are
// not CORBA servers — connection management is middleware transport
// functionality. Each Manager instance is one Group Manager element; it
// consumes control envelopes (open_request, change_request) delivered in
// the total order imposed by the Group Manager's own Castro–Liskov
// transport, so every correct element makes identical decisions, allocates
// identical connection ids, and draws identical common inputs for the
// distributed PRF — without any extra agreement rounds.
package groupmgr

import (
	"fmt"
	"sort"

	"itdos/internal/cdr"
	"itdos/internal/dprf"
	"itdos/internal/idl"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/quorum"
	"itdos/internal/smiop"
	"itdos/internal/vote"
)

// Transport is how a Group Manager element reaches the rest of the system.
type Transport interface {
	// SendOrdered multicasts payload into a replication domain's ordering
	// group (the paper's "keys are sent to the target replication domain
	// using the Castro-Liskov transport").
	SendOrdered(domain string, payload []byte)
	// SendDirect delivers payload to a singleton client's inbox.
	SendDirect(client string, payload []byte)
}

// Config parameterises one Group Manager element.
type Config struct {
	// Index is this element's position in the Group Manager domain.
	Index int
	// Params is the DPRF group geometry (n_gm, f_gm).
	Params dprf.Params
	// Party holds this element's DPRF sub-keys.
	Party *dprf.Party
	// CommonSeed initialises the common-input generator; all elements
	// share it (stand-in for the paper's distributed RNG).
	CommonSeed []byte
	// Domains maps every replication domain and client pseudo-domain to
	// its group geometry.
	Domains map[string]smiop.PeerInfo
	// Registry is the marshalling engine the Group Manager votes with
	// (paper §3.6 — the Group Manager does not run in an ORB).
	Registry *idl.Registry
	// Epsilon is the inexact-voting tolerance used when re-voting proof
	// values.
	Epsilon float64
	// Transport sends bundles and is injected by the system harness.
	Transport Transport
	// SealShare seals a share for a recipient under the pairwise key
	// (paper §3.5 footnote 2).
	SealShare func(recipient string, connID, era uint64, share []byte) ([]byte, error)
	// Verify checks an element's signature (global identity keyring).
	Verify func(identity string, msg, sig []byte) bool
	// MemberOf resolves an authenticated identity to its domain and member
	// index (clients resolve to their own name with member 0).
	MemberOf func(identity string) (domain string, member int, ok bool)
	// Controller, when non-empty, names the authenticated identity of the
	// intrusion-tolerance controller. Only that identity may send
	// rekey_requests, and its change_requests are accepted from off the
	// connection (the proof is transferable: every item is signed by an
	// element of the accused's domain, so validation does not depend on who
	// relays it). Empty disables both paths — the legacy configuration.
	Controller string
	// OnRejectedProof, if non-nil, is called when a change_request proof
	// fails validation, with the authenticated accuser. A rejected proof is
	// itself evidence — of a malicious or confused accuser — and feeds the
	// controller's suspicion state.
	OnRejectedProof func(accuserDomain string, accuserMember int)
	// Metrics, if non-nil, receives Group Manager control-plane counters.
	Metrics *obs.Registry
	// Flight, if non-nil, receives keying events (rekey, expulsion
	// applied, proof rejected) on the ring named "gm/rIndex".
	Flight *flight.Recorder
}

func (c *Config) validate() error {
	if c.Party == nil || c.Transport == nil || c.SealShare == nil ||
		c.Verify == nil || c.MemberOf == nil || c.Registry == nil {
		return fmt.Errorf("groupmgr: config is missing a dependency")
	}
	return c.Params.Validate()
}

// connRecord is the Group Manager's view of one established connection.
type connRecord struct {
	ID        uint64
	Era       uint64
	Initiator string
	Target    string
	X         []byte // current common input (key material identifier)
}

// Expulsion records one completed membership change.
type Expulsion struct {
	Domain string
	Member int
	// ByProof is true when a singleton's signed-message proof drove the
	// expulsion, false when f+1 domain members accused.
	ByProof bool
}

// Manager is one Group Manager replication domain element.
type Manager struct {
	cfg    Config
	common *dprf.CommonInput

	conns     map[string]*connRecord // "initiator|target"
	connsByID map[uint64]*connRecord
	nextConn  uint64

	expelled map[string]map[int]bool
	// votes counts domain-member accusations: key target|member ->
	// accuser domain -> accusing member set.
	votes map[string]map[string]map[int]bool

	// Expulsions records completed membership changes in order.
	Expulsions []Expulsion
	// RejectedProofs counts change_requests whose proof failed validation
	// (e.g. a malicious client trying to expel a correct element).
	RejectedProofs int

	// Control-plane counters (nil-safe; nil when unobserved).
	mOpenRequests   *obs.Counter
	mChangeRequests *obs.Counter
	mSharesIssued   *obs.Counter
	mRekeys         *obs.Counter
	mExpulsions     *obs.Counter
	mRejectedProofs *obs.Counter

	// flightID names this element's flight-recorder ring.
	flightID string
}

// New builds a Group Manager element.
func New(cfg Config) (*Manager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		common:    dprf.NewCommonInput(cfg.CommonSeed),
		conns:     make(map[string]*connRecord),
		connsByID: make(map[uint64]*connRecord),
		expelled:  make(map[string]map[int]bool),
		votes:     make(map[string]map[string]map[int]bool),
	}
	if r := cfg.Metrics; r != nil {
		m.mOpenRequests = r.Counter("gm_open_requests_total")
		m.mChangeRequests = r.Counter("gm_change_requests_total")
		m.mSharesIssued = r.Counter("gm_shares_issued_total")
		m.mRekeys = r.Counter("gm_rekeys_total")
		m.mExpulsions = r.Counter("gm_expulsions_total")
		m.mRejectedProofs = r.Counter("gm_rejected_proofs_total")
	}
	m.flightID = fmt.Sprintf("gm/r%d", cfg.Index)
	return m, nil
}

// record appends a flight-recorder event on this element's ring (no-op
// without a recorder).
func (m *Manager) record(kind flight.Kind, attr string) {
	m.cfg.Flight.Append(m.flightID, kind, 0, 0, 0, attr)
}

// IsExpelled reports whether a domain member has been expelled.
func (m *Manager) IsExpelled(domain string, member int) bool {
	return m.expelled[domain][member]
}

// Connections returns the number of established connections.
func (m *Manager) Connections() int { return len(m.connsByID) }

// HandleDelivery consumes one totally-ordered control message. sender is
// the authenticated identity that submitted it.
func (m *Manager) HandleDelivery(sender string, data []byte) {
	env, err := smiop.DecodeEnvelope(data)
	if err != nil {
		return
	}
	switch env.Kind {
	case smiop.KindOpenRequest:
		m.onOpenRequest(sender, env)
	case smiop.KindChangeRequest:
		m.onChangeRequest(sender, env)
	case smiop.KindRekeyRequest:
		m.onRekeyRequest(sender, env)
	}
}

// onRekeyRequest handles a controller-initiated rekey: every connection
// the named domain participates in moves to a fresh era, with no
// membership change. Because the request arrives in the Group Manager's
// total order, every correct element advances the same eras and draws the
// same common inputs.
func (m *Manager) onRekeyRequest(sender string, env *smiop.Envelope) {
	req, err := smiop.DecodeRekeyRequest(env.Payload)
	if err != nil {
		return
	}
	if m.cfg.Controller == "" || sender != m.cfg.Controller {
		return // only the configured controller may schedule rekeys
	}
	if _, ok := m.cfg.Domains[req.Domain]; !ok {
		return
	}
	m.rekeyDomain(req.Domain)
}

func (m *Manager) onOpenRequest(sender string, env *smiop.Envelope) {
	req, err := smiop.DecodeOpenRequest(env.Payload)
	if err != nil {
		return
	}
	m.mOpenRequests.Inc()
	senderDomain, _, ok := m.cfg.MemberOf(sender)
	if !ok || senderDomain != req.Initiator {
		return // a process may only open connections for itself
	}
	init, ok := m.cfg.Domains[req.Initiator]
	if !ok {
		return
	}
	target, ok := m.cfg.Domains[req.Target]
	if !ok || req.Target == req.Initiator {
		return
	}
	key := req.Initiator + "|" + req.Target
	rec, exists := m.conns[key]
	if !exists {
		m.nextConn++
		rec = &connRecord{
			ID:        m.nextConn,
			Initiator: req.Initiator,
			Target:    req.Target,
			X:         m.common.Next(fmt.Sprintf("conn|%s|%s|era0", req.Initiator, req.Target)),
		}
		m.conns[key] = rec
		m.connsByID[rec.ID] = rec
	}
	// (Re)distribute shares: idempotent for duplicate open_requests, and
	// exactly what a late-joining element needs.
	m.distribute(rec, init, target)
}

// distribute sends this element's key shares for rec to both sides.
func (m *Manager) distribute(rec *connRecord, init, target smiop.PeerInfo) {
	share := m.cfg.Party.EvalShare(rec.X).Encode()
	m.sendBundle(rec, init, target, init, share)
	m.sendBundle(rec, init, target, target, share)
}

func (m *Manager) sendBundle(rec *connRecord, init, target, dst smiop.PeerInfo, share []byte) {
	bundle := &smiop.ShareBundle{
		ConnID:            rec.ID,
		Era:               rec.Era,
		Initiator:         init,
		Target:            target,
		ExpelledInitiator: m.expelledList(init.Name),
		ExpelledTarget:    m.expelledList(target.Name),
		GMMember:          uint32(m.cfg.Index),
		Shares:            make([][]byte, dst.N),
	}
	for i := 0; i < dst.N; i++ {
		if m.expelled[dst.Name][i] {
			continue // keyed out: no share
		}
		recipient := memberIdentity(dst, i)
		sealed, err := m.cfg.SealShare(recipient, rec.ID, rec.Era, share)
		if err != nil {
			continue
		}
		bundle.Shares[i] = sealed
		m.mSharesIssued.Inc()
	}
	env := &smiop.Envelope{
		Kind:      smiop.KindKeyShare,
		ConnID:    rec.ID,
		SrcDomain: GMDomainName,
		SrcMember: uint32(m.cfg.Index),
		Payload:   bundle.Encode(),
	}
	if dst.N == 1 {
		m.cfg.Transport.SendDirect(dst.Name, env.Encode())
	} else {
		m.cfg.Transport.SendOrdered(dst.Name, env.Encode())
	}
}

// GMDomainName is the reserved replication domain name of the Group
// Manager.
const GMDomainName = "gm"

func memberIdentity(p smiop.PeerInfo, member int) string {
	if p.N == 1 {
		return p.Name
	}
	return fmt.Sprintf("%s/r%d", p.Name, member)
}

func (m *Manager) expelledList(domain string) []uint32 {
	var out []uint32
	for member := range m.expelled[domain] {
		out = append(out, uint32(member))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Manager) onChangeRequest(sender string, env *smiop.Envelope) {
	cr, err := smiop.DecodeChangeRequest(env.Payload)
	if err != nil {
		return
	}
	m.mChangeRequests.Inc()
	accuserDomain, accuserMember, ok := m.cfg.MemberOf(sender)
	if !ok {
		return
	}
	targetInfo, ok := m.cfg.Domains[cr.TargetDomain]
	if !ok || int(cr.Accused) >= targetInfo.N {
		return
	}
	if m.expelled[cr.TargetDomain][int(cr.Accused)] {
		return // already expelled
	}
	rec, ok := m.connsByID[cr.ConnID]
	if !ok {
		return
	}
	if rec.Initiator != cr.TargetDomain && rec.Target != cr.TargetDomain {
		return // the accused's domain is not on this connection
	}
	fromController := m.cfg.Controller != "" && sender == m.cfg.Controller
	if !fromController && rec.Initiator != accuserDomain && rec.Target != accuserDomain {
		return // the accuser is not on this connection either
	}

	accuserInfo := m.cfg.Domains[accuserDomain]
	if accuserInfo.N == 1 || fromController {
		// Singleton accuser (or the controller relaying a client's
		// evidence): a malicious client could try to expel correct
		// processes, so proof is mandatory and voted on unmarshalled data
		// (paper §3.6).
		if !m.validateProof(cr, targetInfo) {
			m.RejectedProofs++
			m.mRejectedProofs.Inc()
			m.record(flight.KindProofRejected,
				fmt.Sprintf("accuser=%s/r%d", accuserDomain, accuserMember))
			if m.cfg.OnRejectedProof != nil {
				m.cfg.OnRejectedProof(accuserDomain, accuserMember)
			}
			return
		}
		m.expel(cr.TargetDomain, int(cr.Accused), true)
		return
	}
	// Replication domain accuser: proof unnecessary (the request originates
	// from a trustworthy source) but the Group Manager must receive f+1
	// matching accusations from distinct members before acting.
	voteKey := fmt.Sprintf("%s|%d", cr.TargetDomain, cr.Accused)
	byDomain := m.votes[voteKey]
	if byDomain == nil {
		byDomain = make(map[string]map[int]bool)
		m.votes[voteKey] = byDomain
	}
	members := byDomain[accuserDomain]
	if members == nil {
		members = make(map[int]bool)
		byDomain[accuserDomain] = members
	}
	members[accuserMember] = true
	if len(members) >= quorum.Vote(accuserInfo.F) {
		m.expel(cr.TargetDomain, int(cr.Accused), false)
	}
}

// validateProof checks a singleton accuser's signed-message proof: every
// message must come from a distinct member of the accused's domain and
// carry a valid element signature for the claimed context. The values are
// unmarshalled with the registry (the marshalling engine) and re-voted by
// the rule the accuser's stream voted with; the proof stands iff that vote
// decides and the accused's value does not match the decision.
func (m *Manager) validateProof(cr *smiop.ChangeRequest, target smiop.PeerInfo) bool {
	if len(cr.Proof) < target.F+2 { // accused + f+1 agreeing
		return false
	}
	if _, err := m.cfg.Registry.Lookup(cr.Interface, cr.Operation); err != nil {
		return false
	}
	cmp := smiop.MessageComparator(m.cfg.Epsilon)
	v, err := vote.NewVoter(vote.Config{N: target.N, F: target.F, Comparator: cmp})
	if err != nil {
		return false
	}
	var accused cdr.Value
	for i, item := range cr.Proof {
		signing := smiop.DataSigningBytes(cr.ConnID, cr.RequestID, cr.TargetDomain,
			item.Member, cr.Reply, item.GIOP)
		if !m.cfg.Verify(memberIdentity(target, int(item.Member)), signing, item.Sig) {
			return false
		}
		val, err := smiop.UnmarshalMessage(m.cfg.Registry, cr.Interface, cr.Operation, item.GIOP)
		if err != nil || val.IsReply != cr.Reply {
			return false
		}
		// Submit refuses a member outside the domain and ignores a repeated
		// one, which a proof must not contain either.
		if _, err := v.Submit(vote.Submission{Member: int(item.Member), Value: val}); err != nil || v.Received() != i+1 {
			return false
		}
		if item.Member == cr.Accused {
			accused = val
		}
	}
	dec := v.Decision()
	if dec == nil || accused == nil {
		return false
	}
	eq, err := cmp.Equal(dec.Value, accused)
	return err == nil && !eq
}

// expel removes a member from its domain by keying it out of every
// communication group it belongs to (paper §3.6): every affected
// connection moves to a new era with fresh keys the expelled member never
// receives.
func (m *Manager) expel(domain string, member int, byProof bool) {
	if m.expelled[domain] == nil {
		m.expelled[domain] = make(map[int]bool)
	}
	m.expelled[domain][member] = true
	m.Expulsions = append(m.Expulsions, Expulsion{Domain: domain, Member: member, ByProof: byProof})
	m.mExpulsions.Inc()
	m.record(flight.KindExpulsionFiled,
		fmt.Sprintf("applied member=%s/r%d byproof=%v", domain, member, byProof))
	m.rekeyDomain(domain)
}

// rekeyDomain moves every connection the domain participates in to a new
// era with fresh keys, in deterministic (id) order. Share distribution
// honours the current expelled set, so after an expulsion the keyed-out
// member never sees the new era.
func (m *Manager) rekeyDomain(domain string) {
	ids := make([]uint64, 0, len(m.connsByID))
	for id, rec := range m.connsByID {
		if rec.Initiator == domain || rec.Target == domain {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := m.connsByID[id]
		rec.Era++
		m.mRekeys.Inc()
		m.record(flight.KindRekey,
			fmt.Sprintf("domain=%s conn=%d era=%d", domain, id, rec.Era))
		rec.X = m.common.Next(fmt.Sprintf("conn|%s|%s|era%d", rec.Initiator, rec.Target, rec.Era))
		m.distribute(rec, m.cfg.Domains[rec.Initiator], m.cfg.Domains[rec.Target])
	}
}
