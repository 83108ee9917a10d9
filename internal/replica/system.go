package replica

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"time"

	"itdos/internal/dprf"
	"itdos/internal/groupmgr"
	"itdos/internal/idl"
	"itdos/internal/itc"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/orb"
	"itdos/internal/pbft"
	"itdos/internal/pool"
	"itdos/internal/quorum"
	"itdos/internal/seckey"
	"itdos/internal/smiop"
	"itdos/internal/srm"
	"itdos/internal/transport"
	"itdos/internal/vote"
)

// GMDomainName is the reserved name of the Group Manager domain.
const GMDomainName = groupmgr.GMDomainName

// queueCapacity bounds each SRM queue's retained message window.
const queueCapacity = 4096

// GroupSpec sizes a replication group.
type GroupSpec struct {
	N, F int
}

// DomainSpec describes one application replication domain.
type DomainSpec struct {
	Name string
	N, F int
	// Profiles gives each element its platform (len N); nil means
	// homogeneous DefaultProfile.
	Profiles []Profile
	// Setup registers servants on each element's object adapter. It is
	// called once per element; implementations must install deterministic,
	// equivalent objects on every element (they may differ in language/
	// platform in a real deployment — here they share Go code but may
	// diverge in float behaviour via Profiles).
	Setup func(member int, adapter *orb.Adapter) error
}

// ClientSpec describes a singleton client process.
type ClientSpec struct {
	Name    string
	Profile Profile
}

// SystemConfig wires a whole ITDOS system onto a transport.
type SystemConfig struct {
	Seed    int64
	Latency netsim.LatencyModel

	// Transport carries all system traffic. Nil — the default — builds a
	// fresh netsim.Network from Seed and Latency (the deterministic twin).
	// A TCP backend turns the same wiring into one process of a real
	// cluster: every process builds the identical full system, the
	// transport suppresses the instances it does not host, and
	// DeterministicKeys makes the key material agree across processes.
	Transport transport.Transport

	// DeterministicKeys derives every identity's Ed25519 key from
	// ConfigSecret instead of fresh randomness, so independently built
	// processes of a cluster agree on all key material. Off by default:
	// single-process systems keep fresh random keys.
	DeterministicKeys bool

	// Registry is the shared interface repository (distributed as
	// configuration, like the paper's marshalling-engine inputs).
	Registry *idl.Registry

	// ConfigSecret seeds all pre-established keys: pairwise GM↔element
	// keys, the DPRF master, the common-input generator.
	ConfigSecret []byte

	// GM sizes the Group Manager domain.
	GM GroupSpec

	Domains []DomainSpec
	Clients []ClientSpec

	// VoteMode and Epsilon configure every voting stream.
	VoteMode vote.Mode
	Epsilon  float64
	// ByteVoting switches streams to byte-by-byte voting (experiment C2).
	ByteVoting bool

	// CheckpointInterval and ViewTimeout tune PBFT (0 keeps pbft.Config's
	// default); SendTimeout is the PBFT client retransmission timeout, which
	// also paces a caller's own resends and fallbacks (0 selects
	// pbft.DefaultRetransmitTimeout).
	CheckpointInterval uint64
	ViewTimeout        time.Duration
	SendTimeout        time.Duration

	// MaxBatch and BatchWait tune PBFT request batching in every
	// replication domain (see pbft.Config); zero selects the legacy
	// unbatched protocol.
	MaxBatch  int
	BatchWait time.Duration

	// DigestReplies enables the canonical-form reply-digest protocol
	// (Castro-Liskov digest replies adapted to heterogeneous encodings):
	// per request one designated element returns the full reply; the rest
	// return a short digest over a canonical re-marshalling of the reply
	// values. Off by default — the legacy wire streams stay byte-identical.
	DigestReplies bool

	// TentativeExecution enables Castro–Liskov speculative execution in
	// the replication domains (not the Group Manager): elements execute
	// prepared-but-uncommitted batches, mark the resulting replies
	// tentative on the wire, and clients accept 2f+1 matching tentative
	// replies — one virtual commit round earlier than the committed path —
	// falling back to an ordered retry on quorum failure. Off by default —
	// the legacy wire streams stay byte-identical.
	TentativeExecution bool

	// ITC, when non-nil, enables the intrusion-tolerance controller: a
	// deployment-level singleton that turns the stack's detection signals
	// (voter fault reports, fallback attributions, tampered shares,
	// rejected proofs) into graduated responses — feedback-scheduled
	// rekeys, evidence-gated expulsions, and proactive recovery — through
	// the Group Manager (see package itc). Nil keeps every legacy code
	// path and wire stream byte-identical.
	ITC *itc.Config

	// Metrics, if non-nil, receives counters and histograms from every
	// layer of the stack (ORB, SMIOP, SRM/PBFT, voting, Group Manager).
	// Nil disables metrics at near-zero cost (one nil check per event).
	Metrics *obs.Registry

	// Flight, if non-nil, is the black-box flight recorder: a per-replica
	// ring of typed protocol events (view changes, batches, vote
	// decisions, fault reports, rekeys, expulsions, recoveries) on the
	// virtual clock. The intrusion-tolerance controller snapshots it at
	// threshold crossings; Snapshot/Render expose it on demand. Nil — the
	// default — records nothing and keeps every recording byte-identical.
	Flight *flight.Recorder
}

func (c *SystemConfig) fill() error {
	if c.Registry == nil {
		return fmt.Errorf("replica: system needs an idl.Registry")
	}
	if len(c.ConfigSecret) == 0 {
		c.ConfigSecret = []byte("itdos-default-config-secret")
	}
	if c.GM.N == 0 {
		c.GM = GroupSpec{N: 4, F: 1}
	}
	if c.GM.N < quorum.N(c.GM.F) || c.GM.N < quorum.ReadOnly(c.GM.F) {
		return fmt.Errorf("replica: gm group n=%d f=%d invalid", c.GM.N, c.GM.F)
	}
	if c.VoteMode == 0 {
		c.VoteMode = vote.EagerFPlus1
	}
	if c.SendTimeout == 0 {
		c.SendTimeout = pbft.DefaultRetransmitTimeout
	}
	names := map[string]bool{GMDomainName: true}
	if c.ITC != nil {
		names[itc.Identity] = true // reserve the controller identity
	}
	for _, d := range c.Domains {
		if names[d.Name] || strings.ContainsAny(d.Name, "/|") {
			return fmt.Errorf("replica: invalid or duplicate domain name %q", d.Name)
		}
		names[d.Name] = true
		if d.N < quorum.N(d.F) {
			return fmt.Errorf("replica: domain %s: n=%d < 3f+1 (f=%d)", d.Name, d.N, d.F)
		}
	}
	for _, cl := range c.Clients {
		if names[cl.Name] || strings.ContainsAny(cl.Name, "/|") {
			return fmt.Errorf("replica: invalid or duplicate client name %q", cl.Name)
		}
		names[cl.Name] = true
	}
	return nil
}

// DomainRuntime is a running application replication domain.
type DomainRuntime struct {
	Spec     DomainSpec
	Info     smiop.PeerInfo
	Dom      *srm.Domain
	Elements []*Element
}

// System is a complete ITDOS deployment on a transport: the Group
// Manager domain, the application domains, and singleton clients.
type System struct {
	// Net is the deterministic simulator when the system runs on one
	// (the default); nil when the configured transport is a real network.
	// Simulation-only drivers (RunUntil, CallAndRun) require it.
	Net *netsim.Network

	// tr carries all traffic; equals Net on the simulator.
	tr transport.Transport

	cfg      SystemConfig
	registry *idl.Registry

	// ring holds every identity's public key; keySeed derives every private
	// key (pbft.DeriveIdentity). One element is one identity: it signs its
	// SMIOP payloads, its requests and its ordering replica's messages with
	// the same key.
	ring    *pbft.Keyring
	keySeed []byte
	privs   map[string]ed25519.PrivateKey

	domains map[string]*DomainRuntime
	clients map[string]*Client

	gmDomain   *srm.Domain
	gmInfo     smiop.PeerInfo
	GMManagers []*groupmgr.Manager

	// itc is the intrusion-tolerance controller (nil when cfg.ITC is nil).
	itc *itc.Controller

	// tracer is set by EnableTracing; nil otherwise (tracing off).
	tracer *obs.Tracer

	// memo holds up to memoSize root signatures that passed
	// (checkIdentity). Only the delivery thread uses it, like every other
	// piece of System state.
	memo map[memoKey]bool

	// senders holds one ordered sender per (identity, target group), built
	// on first use; nil for a target no sender can reach.
	senders map[[2]string]*srm.Sender
}

// NewSystem builds and wires the full deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		tr = netsim.NewNetwork(cfg.Seed, cfg.Latency)
	}
	sys := &System{
		tr:       tr,
		cfg:      cfg,
		registry: cfg.Registry,
		ring:     pbft.NewKeyring(),
		privs:    make(map[string]ed25519.PrivateKey),
		domains:  make(map[string]*DomainRuntime),
		clients:  make(map[string]*Client),
		gmInfo:   smiop.PeerInfo{Name: GMDomainName, N: cfg.GM.N, F: cfg.GM.F},
		senders:  make(map[[2]string]*srm.Sender),
		memo:     make(map[memoKey]bool, memoSize),
	}
	// Keep the simulator handle when (and only when) the transport is the
	// deterministic twin; sim-only drivers gate on it.
	if net, ok := tr.(*netsim.Network); ok {
		sys.Net = net
	}
	if sys.Net == nil && cfg.ITC != nil {
		// The controller is a deployment singleton; with every cluster
		// process building the full system, each would run its own
		// controller and act on the shared Group Manager. Keep it a
		// simulation feature until it has a distributed home.
		return nil, fmt.Errorf("replica: ITC requires the netsim transport")
	}
	if sys.Net == nil && !cfg.DeterministicKeys {
		// Every process would draw its own keys and silently reject every
		// signature another process makes.
		return nil, fmt.Errorf("replica: a live transport requires DeterministicKeys")
	}
	if cfg.DeterministicKeys {
		sys.keySeed = sys.deriveSecret("identity-keys")
	} else {
		// One process: its keys need agree with no other's.
		sys.keySeed = make([]byte, 32)
		//itdos:nolint no-wallclock -- key material: it changes signature bytes, never their sizes or the schedule
		if _, err := rand.Read(sys.keySeed); err != nil {
			return nil, err
		}
	}
	// An unbound flight recorder stamps events from this deployment's
	// clock (first non-nil clock wins; nil recorder no-ops).
	sys.cfg.Flight.Bind(sys.tr)

	// Global element/client identities.
	for j := 0; j < cfg.GM.N; j++ {
		if err := sys.addIdentity(GMElementIdentity(j)); err != nil {
			return nil, err
		}
	}
	for _, d := range cfg.Domains {
		for i := 0; i < d.N; i++ {
			if err := sys.addIdentity(ElementIdentity(d.Name, i)); err != nil {
				return nil, err
			}
		}
	}
	for _, cl := range cfg.Clients {
		if err := sys.addIdentity(cl.Name); err != nil {
			return nil, err
		}
	}
	if cfg.ITC != nil {
		if err := sys.addIdentity(itc.Identity); err != nil {
			return nil, err
		}
	}

	if err := sys.buildGM(); err != nil {
		return nil, err
	}
	for _, spec := range cfg.Domains {
		if err := sys.buildDomain(spec); err != nil {
			return nil, err
		}
	}
	for _, spec := range cfg.Clients {
		if err := sys.buildClient(spec); err != nil {
			return nil, err
		}
	}
	if cfg.ITC != nil {
		if err := sys.buildITC(); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// ElementIdentity returns the global identity of a domain element.
func ElementIdentity(domain string, member int) string {
	return fmt.Sprintf("%s/r%d", domain, member)
}

// GMElementIdentity returns the global identity of a Group Manager element.
func GMElementIdentity(member int) string {
	return ElementIdentity(GMDomainName, member)
}

func (sys *System) addIdentity(identity string) error {
	priv, err := pbft.DeriveIdentity(identity, sys.keySeed, sys.ring)
	sys.privs[identity] = priv
	return err
}

// dataSigner names the global identity that signs data messages as member
// of domain: the element, or the singleton client itself. It is also the
// identity that orders them, and that its ordering replica signs as: one key
// serves all three.
func (sys *System) dataSigner(domain string, member uint32) string {
	if info, ok := sys.peerInfo(domain); ok && info.N > 1 {
		return ElementIdentity(domain, int(member))
	}
	return domain
}

// checkData checks a data or digest message's signature by its signer.
func (sys *System) checkData(domain string, member uint32, digest, sig []byte) smiop.SigOutcome {
	return sys.checkIdentity(sys.dataSigner(domain, member), digest, sig)
}

// verifyData checks a data or digest message's signature by its signer.
func (sys *System) verifyData(domain string, member uint32, digest, sig []byte) bool {
	return sys.checkData(domain, member, digest, sig) != smiop.SigRejected
}

// verifyIdentity checks a signature by any global identity, plain or
// batched (smiop.ParseBatchedSig): the caller's streams and the Group
// Manager's proof validation both check through it.
func (sys *System) verifyIdentity(identity string, digest, sig []byte) bool {
	return sys.checkIdentity(identity, digest, sig) != smiop.SigRejected
}

// checkIdentity is verifyIdentity saying whether the root memo answered; a
// digest not of 32 bytes is refused. A batched signature's root is
// recomputed from the digest and its path; the root signature is then
// verified, unless the memo holds this signer, root and signature from an
// earlier pass. Ed25519 verification is a pure function, so a memo hit is
// exactly a re-verification.
func (sys *System) checkIdentity(identity string, digest, sig []byte) smiop.SigOutcome {
	pub, ok := sys.ring.Lookup(identity)
	if !ok || len(digest) != len(pbft.Digest{}) {
		return smiop.SigRejected
	}
	if len(sig) == smiop.SignatureSize {
		if pbft.VerifyDigest(pub, pbft.Digest(digest), sig) {
			return smiop.SigVerified
		}
		return smiop.SigRejected
	}
	b, err := smiop.ParseBatchedSig(sig)
	if err != nil {
		return smiop.SigRejected
	}
	root := b.Root([32]byte(digest))
	key := memoKey{signer: identity, root: root, sig: [smiop.SignatureSize]byte(b.Sig)}
	if sys.memo[key] {
		return smiop.SigRemembered
	}
	if !pbft.VerifyDigest(pub, smiop.RootDigest(root), b.Sig) {
		return smiop.SigRejected
	}
	if len(sys.memo) == memoSize {
		clear(sys.memo) // recent roots refill it within a batch or two
	}
	sys.memo[key] = true
	return smiop.SigVerified
}

// memoSize bounds the root memo: enough for every member's recent roots in
// a process that hosts many callers.
const memoSize = 256

// memoKey is one root signature that passed: who signed which root, and
// every octet of the signature.
type memoKey struct {
	signer string
	root   [32]byte
	sig    [smiop.SignatureSize]byte
}

// peerInfo resolves a domain or client pseudo-domain.
func (sys *System) peerInfo(name string) (smiop.PeerInfo, bool) {
	if name == GMDomainName {
		return sys.gmInfo, true
	}
	if dr, ok := sys.domains[name]; ok {
		return dr.Info, true
	}
	if _, ok := sys.clients[name]; ok {
		return smiop.PeerInfo{Name: name, N: 1, F: 0}, true
	}
	return smiop.PeerInfo{}, false
}

// memberOf resolves a global identity back to (domain, member).
func (sys *System) memberOf(identity string) (string, int, bool) {
	if sys.cfg.ITC != nil && identity == itc.Identity {
		// The controller resolves like a singleton so GM accusation
		// handling can authenticate it; it is not a connection endpoint.
		return itc.Identity, 0, true
	}
	if _, ok := sys.clients[identity]; ok {
		return identity, 0, true
	}
	slash := strings.LastIndex(identity, "/r")
	if slash < 0 {
		return "", 0, false
	}
	domain := identity[:slash]
	// Only the canonical spelling resolves: Atoi alone takes a sign or a
	// leading zero, so the round trip through ElementIdentity decides.
	member, err := strconv.Atoi(identity[slash+2:])
	if err != nil || ElementIdentity(domain, member) != identity {
		return "", 0, false
	}
	if domain == GMDomainName {
		if member < 0 || member >= sys.gmInfo.N {
			return "", 0, false
		}
		return domain, member, true
	}
	dr, ok := sys.domains[domain]
	if !ok || member < 0 || member >= dr.Info.N {
		return "", 0, false
	}
	return domain, member, true
}

func (sys *System) gmParams() dprf.Params {
	return dprf.Params{N: sys.gmInfo.N, F: sys.gmInfo.F}
}

// deriveSecret derives a purpose-bound secret from the configuration
// secret.
func (sys *System) deriveSecret(purpose string) []byte {
	mac := hmac.New(sha256.New, sys.cfg.ConfigSecret)
	mac.Write([]byte(purpose))
	return mac.Sum(nil)
}

// pairwiseChannel builds the one-shot sealing channel for a GM↔recipient
// share transfer, context-bound to the connection and era.
func (sys *System) pairwiseChannel(gmIdentity, recipient string, connID, era uint64) *seckey.Channel {
	key := seckey.Pairwise(sys.deriveSecret("pairwise"), gmIdentity, recipient)
	ctx := fmt.Sprintf("share|conn%d|era%d|%s", connID, era, recipient)
	return seckey.NewChannel(key, ctx)
}

// sealShare seals a share from a GM element to a recipient.
func (sys *System) sealShare(gmIdentity, recipient string, connID, era uint64, share []byte) ([]byte, error) {
	return sys.pairwiseChannel(gmIdentity, recipient, connID, era).Seal(share)
}

// openShare opens a sealed share at the recipient.
func (sys *System) openShare(gmIdentity, recipient string, connID, era uint64, sealed []byte) ([]byte, error) {
	return sys.pairwiseChannel(gmIdentity, recipient, connID, era).Open(sealed)
}

// --- construction ---

func (sys *System) buildGM() error {
	dom, err := srm.NewDomain(sys.tr, srm.DomainConfig{
		Name: GMDomainName, N: sys.gmInfo.N, F: sys.gmInfo.F,
		QueueCapacity:      queueCapacity,
		CheckpointInterval: sys.cfg.CheckpointInterval,
		ViewTimeout:        sys.cfg.ViewTimeout,
		MaxBatch:           sys.cfg.MaxBatch,
		BatchWait:          sys.cfg.BatchWait,
		Ring:               sys.ring,
		KeySeed:            sys.keySeed,
		Metrics:            sys.cfg.Metrics,
		Flight:             sys.cfg.Flight,
	})
	if err != nil {
		return err
	}
	sys.gmDomain = dom

	parties, err := dprf.Setup(sys.gmParams(), sys.deriveSecret("dprf-master"))
	if err != nil {
		return err
	}
	domainTable := make(map[string]smiop.PeerInfo)
	for _, d := range sys.cfg.Domains {
		domainTable[d.Name] = smiop.PeerInfo{Name: d.Name, N: d.N, F: d.F}
	}
	for _, cl := range sys.cfg.Clients {
		domainTable[cl.Name] = smiop.PeerInfo{Name: cl.Name, N: 1, F: 0}
	}
	controller := ""
	if sys.cfg.ITC != nil {
		controller = itc.Identity
	}
	for j := 0; j < sys.gmInfo.N; j++ {
		j := j
		gmIdentity := GMElementIdentity(j)
		var onRejected func(string, int)
		if sys.cfg.ITC != nil && j == 0 {
			// One GM element reports rejected proofs to the controller:
			// every correct element rejects the same requests (total
			// order), so element 0 is representative and the signal is not
			// multiplied by n_gm.
			onRejected = func(accuserDomain string, accuserMember int) {
				if sys.itc != nil && accuserDomain != itc.Identity {
					sys.itc.ObserveRejectedProof(accuserDomain, accuserMember)
				}
			}
		}
		mgr, err := groupmgr.New(groupmgr.Config{
			Index:      j,
			Params:     sys.gmParams(),
			Party:      parties[j],
			CommonSeed: sys.deriveSecret("common-input"),
			Domains:    domainTable,
			Registry:   sys.registry,
			Epsilon:    sys.cfg.Epsilon,
			Transport:  &gmTransport{sys: sys, gmIdentity: gmIdentity},
			SealShare: func(recipient string, connID, era uint64, share []byte) ([]byte, error) {
				return sys.sealShare(gmIdentity, recipient, connID, era, share)
			},
			Verify:          sys.verifyIdentity,
			MemberOf:        sys.memberOf,
			Controller:      controller,
			OnRejectedProof: onRejected,
			Metrics:         sys.cfg.Metrics,
			Flight:          sys.cfg.Flight,
		})
		if err != nil {
			return err
		}
		sys.GMManagers = append(sys.GMManagers, mgr)
		dom.Elements[j].OnDeliver = func(seq uint64, sender string, data []byte) {
			mgr.HandleDelivery(sender, data)
		}
	}
	return nil
}

// gmTransport lets one Group Manager element reach domains and clients.
type gmTransport struct {
	sys        *System
	gmIdentity string
}

var _ groupmgr.Transport = (*gmTransport)(nil)

// SendOrdered implements groupmgr.Transport.
func (t *gmTransport) SendOrdered(domain string, payload []byte) {
	t.sys.sendOrdered(t.gmIdentity, domain, [][]byte{payload}, nil)
}

// SendDirect implements groupmgr.Transport.
func (t *gmTransport) SendDirect(client string, payload []byte) {
	t.sys.tr.Send(transport.NodeID(t.gmIdentity), transport.NodeID(clientInboxAddr(client)), payload)
}

func clientInboxAddr(name string) string { return name + "/inbox" }

// elementInboxAddr is a domain element's direct (unordered) receive address,
// used by the read-only fast path.
func elementInboxAddr(domain string, member int) string {
	return ElementIdentity(domain, member) + "/inbox"
}

func (sys *System) buildDomain(spec DomainSpec) error {
	dr := &DomainRuntime{
		Spec: spec,
		Info: smiop.PeerInfo{Name: spec.Name, N: spec.N, F: spec.F},
	}
	dom, err := srm.NewDomain(upcallTransport{sys.tr, dr}, srm.DomainConfig{
		Name: spec.Name, N: spec.N, F: spec.F,
		QueueCapacity:      queueCapacity,
		CheckpointInterval: sys.cfg.CheckpointInterval,
		ViewTimeout:        sys.cfg.ViewTimeout,
		MaxBatch:           sys.cfg.MaxBatch,
		BatchWait:          sys.cfg.BatchWait,
		// GM delivery handling is not rollback-safe, so speculation is a
		// replication-domain option only (see buildGM).
		TentativeExecution: sys.cfg.TentativeExecution,
		Ring:               sys.ring,
		KeySeed:            sys.keySeed,
		Metrics:            sys.cfg.Metrics,
		Flight:             sys.cfg.Flight,
	})
	if err != nil {
		return err
	}
	dr.Dom = dom
	sys.domains[spec.Name] = dr
	for i := 0; i < spec.N; i++ {
		profile := DefaultProfile
		if i < len(spec.Profiles) {
			profile = spec.Profiles[i]
		}
		el, err := newElement(sys, dr, i, profile)
		if err != nil {
			return fmt.Errorf("replica: build %s element %d: %w", spec.Name, i, err)
		}
		if spec.Setup != nil {
			if err := spec.Setup(i, el.Adapter); err != nil {
				return fmt.Errorf("replica: setup %s element %d: %w", spec.Name, i, err)
			}
		}
		dr.Elements = append(dr.Elements, el)
	}
	return nil
}

// upcallTransport is the transport a domain's ordering group is built on:
// every delivery to replica i runs inside an upcall bracket of element i,
// so the full replies the element produces while one delivery executes a
// batch share one root signature (Element.flushReplies).
type upcallTransport struct {
	transport.Transport
	dr *DomainRuntime
}

// AddNode implements transport.Transport.
func (t upcallTransport) AddNode(id transport.NodeID, h transport.Handler) {
	for i := 0; i < t.dr.Spec.N; i++ {
		if string(id) != ElementIdentity(t.dr.Spec.Name, i) {
			continue
		}
		inner := h
		h = transport.HandlerFunc(func(from transport.NodeID, payload []byte) {
			// Deliveries begin after NewSystem has built every element.
			el := t.dr.Elements[i]
			el.inUpcall = true
			inner.Receive(from, payload)
			el.inUpcall = false
			el.flushReplies()
		})
	}
	t.Transport.AddNode(id, h)
}

func (sys *System) buildClient(spec ClientSpec) error {
	cl, err := newClient(sys, spec)
	if err != nil {
		return err
	}
	sys.clients[spec.Name] = cl
	return nil
}

// sendOrdered multicasts payloads — one message's worth, ordered together
// when they fit one request — into target's ordering group as identity,
// behind that identity's unacknowledged sends there. The detached span sp
// (nil-safe) ends at the last payload's acknowledgement, or at once when the
// target is unknown.
func (sys *System) sendOrdered(identity, target string, payloads [][]byte, sp *obs.Span) {
	if s := sys.sender(identity, target); s != nil {
		_, _ = s.SendAll(payloads, sp) // a refusal ends sp; the caller's own timeout covers the rest
		return
	}
	sp.End()
}

// sendOrderedFrames is sendOrdered over pooled frames, which it takes over
// (see srm.Sender.SendFrames).
func (sys *System) sendOrderedFrames(identity, target string, frames []*pool.Buffer, sp *obs.Span) {
	if s := sys.sender(identity, target); s != nil {
		_, _ = s.SendFrames(frames, sp)
		return
	}
	smiop.ReleaseFrames(frames)
	sp.End()
}

// sender returns identity's ordered sender into target, built on first use,
// or nil for an unknown target.
func (sys *System) sender(identity, target string) *srm.Sender {
	key := [2]string{identity, target}
	s, ok := sys.senders[key]
	if !ok {
		s = sys.newSender(identity, target)
		sys.senders[key] = s
	}
	return s
}

// newSender builds an ordered sender from an identity into a domain's
// ordering group. It returns nil for an unknown target: the caller's
// higher-level call then fails by timeout at the application level, and
// simulation code paths do not panic.
func (sys *System) newSender(identity, target string) *srm.Sender {
	dom := sys.gmDomain
	if target != GMDomainName {
		dr, ok := sys.domains[target]
		if !ok {
			return nil
		}
		dom = dr.Dom
	}
	// On error s is nil, and the target is as unreachable as an unknown one.
	s, _ := srm.NewSender(dom, identity, fmt.Sprintf("%s/tx/%s", identity, target), sys.cfg.SendTimeout)
	return s
}

// --- accessors and drivers ---

// Domain returns a domain runtime by name.
func (sys *System) Domain(name string) *DomainRuntime { return sys.domains[name] }

// Client returns a client runtime by name.
func (sys *System) Client(name string) *Client { return sys.clients[name] }

// Registry returns the shared interface registry.
func (sys *System) Registry() *idl.Registry { return sys.registry }

// Metrics returns the system's metrics registry (nil when unobserved).
func (sys *System) Metrics() *obs.Registry { return sys.cfg.Metrics }

// Flight returns the system's flight recorder (nil when disabled).
func (sys *System) Flight() *flight.Recorder { return sys.cfg.Flight }

// EnableTracing turns on invocation tracing over the transport's clock
// and returns the tracer. Call it before driving traffic: streams
// capture the tracer when their connection is installed. Idempotent.
func (sys *System) EnableTracing() *obs.Tracer {
	if sys.tracer == nil {
		sys.tracer = obs.NewTracer(sys.tr)
	}
	for _, dr := range sys.domains {
		for _, el := range dr.Elements {
			el.caller.Tracer = sys.tracer
		}
	}
	for _, cl := range sys.clients {
		cl.orb.Tracer = sys.tracer
	}
	if sys.itc != nil {
		sys.itc.SetTracer(sys.tracer)
	}
	return sys.tracer
}

// Tracer returns the system tracer (nil until EnableTracing).
func (sys *System) Tracer() *obs.Tracer { return sys.tracer }

// GMDomain returns the Group Manager's ordering domain (diagnostics: its
// replicas' view and execution point).
func (sys *System) GMDomain() *srm.Domain { return sys.gmDomain }

// Transport returns the transport carrying this system's traffic.
func (sys *System) Transport() transport.Transport { return sys.tr }

// RunUntil drives the network until cond holds (see netsim.RunUntil).
// Only valid on the simulator transport.
func (sys *System) RunUntil(cond func() bool, maxEvents int) error {
	if sys.Net == nil {
		return fmt.Errorf("replica: RunUntil requires the netsim transport")
	}
	return sys.Net.RunUntil(cond, maxEvents)
}

// Close fails every parked call — it returns an error wrapping errClosed —
// and joins every ORB goroutine. It runs on the delivery thread: on the
// simulator the caller's goroutine is the one that drives the network; a
// live transport must be closed first (cluster.Node.Close), so no loop runs
// beside the caller.
func (sys *System) Close() error {
	var firstErr error
	for _, dr := range sys.domains {
		for _, el := range dr.Elements {
			if err := el.close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, cl := range sys.clients {
		if err := cl.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
