// Package pbft implements the Castro–Liskov Practical Byzantine Fault
// Tolerance protocol (OSDI'99 / OSDI'00), the "Secure Reliable Multicast"
// substrate ITDOS integrates under its ORB (paper §3.1).
//
// The implementation follows the published protocol: three-phase ordering
// (pre-prepare / prepare / commit) within a view, periodic checkpoints with
// 2f+1 signed proofs, log truncation at stable checkpoints, watermark
// windows, view changes with prepared-certificate carryover, and state
// transfer for replicas that fall behind. Clients accept a result once f+1
// replicas return matching replies.
//
// Replicas and clients are event-driven state machines: they consume
// messages and timer expirations and emit messages through an Env. The same
// code therefore runs on the deterministic simulator (internal/netsim) and
// on a live goroutine/TCP environment.
package pbft

import (
	"crypto/sha256"
	"fmt"

	"itdos/internal/cdr"
)

// ReplicaID indexes a replica within its group, 0..n-1.
type ReplicaID int

// Digest is a SHA-256 digest of a message's canonical encoding.
type Digest [32]byte

// NullDigest marks a null request (ordered but not executed), used to fill
// sequence gaps during view changes.
var NullDigest Digest

// IsNull reports whether the digest is the null request digest.
func (d Digest) IsNull() bool { return d == NullDigest }

// String returns a short hex prefix for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:4]) }

// MsgType tags the PBFT wire messages.
type MsgType byte

// PBFT message types.
const (
	MTRequest MsgType = iota + 1
	MTPrePrepare
	MTPrepare
	MTCommit
	MTReply
	MTCheckpoint
	MTViewChange
	MTNewView
	MTFetchState
	MTStateData
	MTFetchEntry
)

var mtNames = map[MsgType]string{
	MTRequest:    "REQUEST",
	MTPrePrepare: "PRE-PREPARE",
	MTPrepare:    "PREPARE",
	MTCommit:     "COMMIT",
	MTReply:      "REPLY",
	MTCheckpoint: "CHECKPOINT",
	MTViewChange: "VIEW-CHANGE",
	MTNewView:    "NEW-VIEW",
	MTFetchState: "FETCH-STATE",
	MTStateData:  "STATE-DATA",
	MTFetchEntry: "FETCH-ENTRY",
}

// String returns the protocol name of the message type.
func (t MsgType) String() string {
	if s, ok := mtNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Message is the interface satisfied by all PBFT wire messages. The
// canonical encoding (big-endian CDR) is the input to signatures and
// digests, so it must be deterministic.
type Message interface {
	Type() MsgType
	marshal(e *cdr.Encoder)
	unmarshal(d *cdr.Decoder) error
	// sigRef returns the signature field so generic sign/verify helpers can
	// exclude it from the signed bytes.
	sigRef() *[]byte
	// sender returns the index of the sending replica in its group, or -1 for
	// a request, which its client signs (ClientID).
	sender() ReplicaID
}

// Request is a client invocation to be totally ordered.
//
// A request is not mutated once it is decoded or signed: its digest is
// computed then, and every later Digest returns that value. Only the mark of
// a replica's own signature check (sigChecked) is set later. A decoded
// request's Op, Sig and Tags alias the buffer Decode read, as every octet
// field Decode returns does: the transport handed that buffer up, and no one
// writes it afterwards.
//
// A request carries two authenticators over the same signing digest. The
// signature is for a third party: a replica checks it where a request
// arrives on its own, and before it orders one it has not checked. The tags
// convince one replica each: a backup admits a request inside a pre-prepare
// on its own tag (Replica.validBatch).
type Request struct {
	// ClientID is the authentication identity of the requester.
	ClientID string
	// ClientSeq is the client-local timestamp; replicas execute each
	// (ClientID, ClientSeq) at most once.
	ClientSeq uint64
	// Op is the opaque operation handed to the application on execution.
	Op []byte
	// ReplyTo is the transport address replies are sent to.
	ReplyTo string
	// Sig is the client's signature.
	Sig []byte
	// Tags is the client's tag vector, laid out like a commit's: one
	// MACSize-byte tag per replica of the group, slot i under the key the
	// client shares with replica i, over requestTagBytes of the signing
	// digest. Neither the signature nor Digest covers it.
	Tags []byte

	// opDigest, digest, signDigest and size cache OpDigest, Digest,
	// signingDigest(m) and Size once hashed is set.
	opDigest   Digest
	digest     Digest
	signDigest Digest
	size       int
	hashed     bool
	// sigChecked marks a request whose signature the replica holding it has
	// checked. A request reaches a replica only as bytes it decodes itself,
	// so the mark is that replica's own.
	sigChecked bool
}

// Type implements Message.
func (*Request) Type() MsgType { return MTRequest }

func (m *Request) marshal(e *cdr.Encoder) {
	m.marshalUntagged(e)
	e.WriteOctets(m.Tags)
}

// marshalUntagged encodes the request up to its tag vector: what Digest
// hashes.
func (m *Request) marshalUntagged(e *cdr.Encoder) {
	e.WriteString(m.ClientID)
	e.WriteULongLong(m.ClientSeq)
	e.WriteOctets(m.Op)
	e.WriteString(m.ReplyTo)
	e.WriteOctets(m.Sig)
}

func (m *Request) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.ClientID, err = d.ReadString(); err != nil {
		return err
	}
	if m.ClientSeq, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.Op, err = d.ReadOctets(); err != nil {
		return err
	}
	if m.ReplyTo, err = d.ReadString(); err != nil {
		return err
	}
	if m.Sig, err = d.ReadOctets(); err != nil {
		return err
	}
	if m.Tags, err = d.ReadOctets(); err != nil {
		return err
	}
	m.rehash()
	return nil
}

func (m *Request) sigRef() *[]byte { return &m.Sig }
func (*Request) sender() ReplicaID { return -1 }

// Digest returns the request's canonical digest: SHA-256 of the request's
// digest form (formDigest) with its signature, so a forged signature changes
// the digest and a tag vector does not. It is never a hash of the bytes the
// request was decoded from: CDR aligns relative to the start of a stream, so
// a request inside a pre-prepare is laid out differently from one on its
// own. The tags stay outside it because each replica can check only its own
// slot: a batch digest over them would bind bytes no receiver can vouch for.
func (m *Request) Digest() Digest {
	if !m.hashed {
		m.rehash()
	}
	return m.digest
}

// OpDigest returns SHA-256 of Op, which both of the request's digests cover
// in Op's place and the application receives with Op (App.Execute). Like
// them it is computed from the Op the request holds, never read from the
// wire.
func (m *Request) OpDigest() Digest {
	if !m.hashed {
		m.rehash()
	}
	return m.opDigest
}

// Size returns the length of the request's encoding, tag vector included,
// the quantity MaxRequestBytes and MaxBatchBytes bound. Like Digest it is
// computed from the fields, never from the bytes the request was decoded
// from, so every replica measures a request alike.
func (m *Request) Size() int {
	if !m.hashed {
		m.rehash()
	}
	return m.size
}

// rehash computes what OpDigest, Digest, signingDigest and Size return from
// the request's fields now: at decode, or on a first use. Op is read once,
// by its own hash; the two digests each hash the few dozen octets of the
// digest form.
func (m *Request) rehash() {
	m.opDigest = sha256.Sum256(m.Op)
	m.digest, m.signDigest = m.formDigest(m.Sig), m.formDigest(nil)
	m.size, m.hashed = m.encodedSize(), true
}

// sign signs the request's fields as they stand as auth's identity, tags
// them for each of the replicas ids (none when ids is nil), and caches what
// rehash would.
func (m *Request) sign(auth Authenticator, ids []string) {
	m.opDigest = sha256.Sum256(m.Op)
	m.signDigest = m.formDigest(nil)
	m.Sig = auth.Sign(m.signDigest)
	m.Tags = requestTags(auth, m.signDigest, ids)
	m.digest = m.formDigest(m.Sig)
	m.size, m.hashed = m.encodedSize(), true
}

// formDigest returns SHA-256 of the request's digest form with signature
// sig: its standalone encoding up to the tag vector with Op replaced by the
// op digest. With the signature it is Digest; with none (a zero length
// field) it is the signing digest, what the signature and the tags cover.
func (m *Request) formDigest(sig []byte) Digest {
	form := Request{ClientID: m.ClientID, ClientSeq: m.ClientSeq, Op: m.opDigest[:], ReplyTo: m.ReplyTo, Sig: sig}
	var scratch [192]byte
	e := cdr.NewEncoderOver(cdr.BigEndian, scratch[:0])
	e.WriteOctet(byte(MTRequest))
	form.marshalUntagged(e)
	return sha256.Sum256(e.Bytes())
}

// encodedSize returns the length of the request's encoding, counted from its
// fields: the type octet, each length field aligned to 4 and ClientSeq to 8,
// a string's terminator included.
func (m *Request) encodedSize() int {
	align := func(n, to int) int { return (n + to - 1) &^ (to - 1) }
	n := align(1, 4) + 4 + len(m.ClientID) + 1
	n = align(n, 8) + 8
	n = align(n, 4) + 4 + len(m.Op)
	n = align(n, 4) + 4 + len(m.ReplyTo) + 1
	n = align(n, 4) + 4 + len(m.Sig)
	return align(n, 4) + 4 + len(m.Tags)
}

// embeddedSlack is the most a request inside a pre-prepare can encode to
// beyond encodedSize, wherever in the stream it starts. On its own a request
// takes 4 octets (the type octet and padding) before its fields, which start
// at 4 mod 8. Embedded it takes at most 3 octets of padding, and its fields
// start at 0 or 4 mod 8; at 0, only ClientSeq, the one 8-aligned field,
// can take 4 octets more padding, and everything after it lies as before.
const embeddedSlack = 3

// PrePrepare is the primary's ordering proposal for an ordered batch of
// requests at (View, Seq). Digest covers the whole batch (BatchDigest); an
// empty batch with a null digest is the view-change gap filler. Sig covers
// the header only (signingBytes): the requests travel outside it, bound by
// the digest, which a receiver checks (validBatch).
//
// Wire compatibility: the request count is one octet, so a single-request
// pre-prepare encodes byte-identically to the legacy boolean-prefixed form
// (count 1 == boolean true, count 0 == boolean false) and legacy frames and
// fuzz corpora decode unchanged.
type PrePrepare struct {
	View     uint64
	Seq      uint64
	Digest   Digest
	Requests []*Request // piggybacked batch; empty when Digest.IsNull()
	Replica  ReplicaID
	Sig      []byte
}

// MaxBatchWire is the largest batch a pre-prepare can carry: the count is a
// single octet on the wire.
const MaxBatchWire = 255

// maxFrameBytes is the largest message one transport frame carries: the
// TCP transport's default frame bound, tcp.DefaultMaxFrame
// (TestLargestPrePrepareFitsFrame pins the two equal).
const maxFrameBytes = 1 << 20

// MaxRequestBytes bounds a client request's encoding (Request.Size). Every
// replica drops a larger request wherever it meets one: on arrival, before it
// is forwarded or a timer is armed, and inside a pre-prepare (validBatch). An
// honest client never builds one (Client.Invoke refuses it).
const MaxRequestBytes = maxFrameBytes / 16

// MaxBatchBytes bounds the summed request sizes of one pre-prepare: a primary
// closes a batch before it would pass it, and a backup refuses a pre-prepare
// that does. What the frame holds beyond it — a whole request's worth — is
// far more than the pre-prepare's own fields and alignment need, so the
// largest pre-prepare a primary builds fits one frame whatever MaxBatch is.
const MaxBatchBytes = maxFrameBytes - MaxRequestBytes

// Type implements Message.
func (*PrePrepare) Type() MsgType { return MTPrePrepare }

func (m *PrePrepare) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.View)
	e.WriteULongLong(m.Seq)
	e.WriteOctets(m.Digest[:])
	e.WriteOctet(byte(len(m.Requests)))
	for _, req := range m.Requests {
		req.marshal(e)
	}
	writeTail(e, m.Replica, m.Sig)
}

func (m *PrePrepare) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.View, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.Seq, err = d.ReadULongLong(); err != nil {
		return err
	}
	if err = readDigest(d, &m.Digest); err != nil {
		return err
	}
	count, err := d.ReadOctet()
	if err != nil {
		return err
	}
	if count > 0 {
		m.Requests = make([]*Request, count)
		for i := range m.Requests {
			m.Requests[i] = &Request{}
			if err = m.Requests[i].unmarshal(d); err != nil {
				return err
			}
		}
	}
	return readTail(d, &m.Replica, &m.Sig)
}

// BatchDigest returns the digest a pre-prepare must carry for the given
// batch. A single request keeps its own digest (identical to the legacy
// single-request protocol); a larger batch hashes the member digests in
// order; an empty batch is the null request.
func BatchDigest(reqs []*Request) Digest {
	switch len(reqs) {
	case 0:
		return NullDigest
	case 1:
		return reqs[0].Digest()
	}
	h := sha256.New()
	for _, req := range reqs {
		d := req.Digest()
		h.Write(d[:])
	}
	var out Digest
	copy(out[:], h.Sum(nil))
	return out
}

func (m *PrePrepare) sigRef() *[]byte   { return &m.Sig }
func (m *PrePrepare) sender() ReplicaID { return m.Replica }

// Prepare is a backup's agreement to order Digest at (View, Seq).
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Replica ReplicaID
	Sig     []byte
}

// Type implements Message.
func (*Prepare) Type() MsgType { return MTPrepare }

func (m *Prepare) marshal(e *cdr.Encoder) { marshalPhase(e, m.View, m.Seq, m.Digest, m.Replica, m.Sig) }
func (m *Prepare) unmarshal(d *cdr.Decoder) error {
	return unmarshalPhase(d, &m.View, &m.Seq, &m.Digest, &m.Replica, &m.Sig)
}
func (m *Prepare) sigRef() *[]byte         { return &m.Sig }
func (m *Prepare) phase() (uint64, Digest) { return m.View, m.Digest }
func (m *Prepare) sender() ReplicaID       { return m.Replica }

// Commit finalises ordering of Digest at (View, Seq).
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Replica ReplicaID
	Sig     []byte
}

// Type implements Message.
func (*Commit) Type() MsgType { return MTCommit }

func (m *Commit) marshal(e *cdr.Encoder) { marshalPhase(e, m.View, m.Seq, m.Digest, m.Replica, m.Sig) }
func (m *Commit) unmarshal(d *cdr.Decoder) error {
	return unmarshalPhase(d, &m.View, &m.Seq, &m.Digest, &m.Replica, &m.Sig)
}
func (m *Commit) sigRef() *[]byte         { return &m.Sig }
func (m *Commit) phase() (uint64, Digest) { return m.View, m.Digest }
func (m *Commit) sender() ReplicaID       { return m.Replica }

// Reply carries a replica's execution result back to the client. The client
// accepts a result supported by f+1 matching replies.
type Reply struct {
	View      uint64
	ClientID  string
	ClientSeq uint64
	Replica   ReplicaID
	Result    []byte
	Sig       []byte
}

// Type implements Message.
func (*Reply) Type() MsgType { return MTReply }

func (m *Reply) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.View)
	e.WriteString(m.ClientID)
	e.WriteULongLong(m.ClientSeq)
	e.WriteLong(int32(m.Replica))
	e.WriteOctets(m.Result)
	e.WriteOctets(m.Sig)
}

func (m *Reply) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.View, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.ClientID, err = d.ReadString(); err != nil {
		return err
	}
	if m.ClientSeq, err = d.ReadULongLong(); err != nil {
		return err
	}
	if err = readReplica(d, &m.Replica); err != nil {
		return err
	}
	if m.Result, err = d.ReadOctets(); err != nil {
		return err
	}
	m.Sig, err = d.ReadOctets()
	return err
}

func (m *Reply) sigRef() *[]byte   { return &m.Sig }
func (m *Reply) sender() ReplicaID { return m.Replica }

// Checkpoint attests that the sender's application state at Seq has
// StateDigest. 2f+1 matching checkpoints make the checkpoint stable.
type Checkpoint struct {
	Seq         uint64
	StateDigest Digest
	Replica     ReplicaID
	Sig         []byte
}

// Type implements Message.
func (*Checkpoint) Type() MsgType { return MTCheckpoint }

func (m *Checkpoint) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.Seq)
	e.WriteOctets(m.StateDigest[:])
	writeTail(e, m.Replica, m.Sig)
}

func (m *Checkpoint) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.Seq, err = d.ReadULongLong(); err != nil {
		return err
	}
	if err = readDigest(d, &m.StateDigest); err != nil {
		return err
	}
	return readTail(d, &m.Replica, &m.Sig)
}

func (m *Checkpoint) sigRef() *[]byte   { return &m.Sig }
func (m *Checkpoint) sender() ReplicaID { return m.Replica }

// PreparedProof is a prepared certificate: a pre-prepare plus 2f matching
// prepares, carried inside view changes.
type PreparedProof struct {
	PrePrepare *PrePrepare
	Prepares   []*Prepare
}

func (p *PreparedProof) marshal(e *cdr.Encoder) {
	p.PrePrepare.marshal(e)
	e.WriteULong(uint32(len(p.Prepares)))
	for _, prep := range p.Prepares {
		prep.marshal(e)
	}
}

func (p *PreparedProof) unmarshal(d *cdr.Decoder) error {
	p.PrePrepare = &PrePrepare{}
	err := p.PrePrepare.unmarshal(d)
	if err == nil {
		p.Prepares, err = readList[Prepare](d)
	}
	return err
}

// ViewChange asks to install NewView, carrying the sender's stable
// checkpoint proof and its prepared certificates above it.
type ViewChange struct {
	NewView         uint64
	LastStable      uint64
	CheckpointProof []*Checkpoint
	Prepared        []*PreparedProof
	Replica         ReplicaID
	Sig             []byte
}

// Type implements Message.
func (*ViewChange) Type() MsgType { return MTViewChange }

func (m *ViewChange) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.NewView)
	e.WriteULongLong(m.LastStable)
	e.WriteULong(uint32(len(m.CheckpointProof)))
	for _, c := range m.CheckpointProof {
		c.marshal(e)
	}
	e.WriteULong(uint32(len(m.Prepared)))
	for _, proof := range m.Prepared {
		proof.marshal(e)
	}
	writeTail(e, m.Replica, m.Sig)
}

func (m *ViewChange) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.NewView, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.LastStable, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.CheckpointProof, err = readList[Checkpoint](d); err != nil {
		return err
	}
	if m.Prepared, err = readList[PreparedProof](d); err != nil {
		return err
	}
	return readTail(d, &m.Replica, &m.Sig)
}

func (m *ViewChange) sigRef() *[]byte   { return &m.Sig }
func (m *ViewChange) sender() ReplicaID { return m.Replica }

// NewView installs View: it proves 2f+1 replicas requested the change and
// re-proposes in-flight requests so no committed request is lost.
type NewView struct {
	View        uint64
	ViewChanges []*ViewChange
	PrePrepares []*PrePrepare
	Replica     ReplicaID
	Sig         []byte
}

// Type implements Message.
func (*NewView) Type() MsgType { return MTNewView }

func (m *NewView) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.View)
	e.WriteULong(uint32(len(m.ViewChanges)))
	for _, vc := range m.ViewChanges {
		vc.marshal(e)
	}
	e.WriteULong(uint32(len(m.PrePrepares)))
	for _, pp := range m.PrePrepares {
		pp.marshal(e)
	}
	writeTail(e, m.Replica, m.Sig)
}

func (m *NewView) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.View, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.ViewChanges, err = readList[ViewChange](d); err != nil {
		return err
	}
	if m.PrePrepares, err = readList[PrePrepare](d); err != nil {
		return err
	}
	return readTail(d, &m.Replica, &m.Sig)
}

func (m *NewView) sigRef() *[]byte   { return &m.Sig }
func (m *NewView) sender() ReplicaID { return m.Replica }

// FetchState requests the snapshot at the sender's peer's stable checkpoint
// at or above Seq (state transfer for lagging replicas).
type FetchState struct {
	Seq     uint64
	Replica ReplicaID
	Sig     []byte
}

// Type implements Message.
func (*FetchState) Type() MsgType { return MTFetchState }

func (m *FetchState) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.Seq)
	writeTail(e, m.Replica, m.Sig)
}

func (m *FetchState) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.Seq, err = d.ReadULongLong(); err != nil {
		return err
	}
	return readTail(d, &m.Replica, &m.Sig)
}

func (m *FetchState) sigRef() *[]byte   { return &m.Sig }
func (m *FetchState) sender() ReplicaID { return m.Replica }

// StateData carries a snapshot plus its stable-checkpoint proof.
type StateData struct {
	Seq      uint64
	Snapshot []byte
	Proof    []*Checkpoint
	Replica  ReplicaID
	Sig      []byte
}

// Type implements Message.
func (*StateData) Type() MsgType { return MTStateData }

func (m *StateData) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.Seq)
	e.WriteOctets(m.Snapshot)
	e.WriteULong(uint32(len(m.Proof)))
	for _, c := range m.Proof {
		c.marshal(e)
	}
	writeTail(e, m.Replica, m.Sig)
}

func (m *StateData) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.Seq, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.Snapshot, err = d.ReadOctets(); err != nil {
		return err
	}
	if m.Proof, err = readList[Checkpoint](d); err != nil {
		return err
	}
	return readTail(d, &m.Replica, &m.Sig)
}

func (m *StateData) sigRef() *[]byte   { return &m.Sig }
func (m *StateData) sender() ReplicaID { return m.Replica }

// FetchEntry asks a peer to retransmit the pre-prepare it holds for
// (View, Seq). It implements the message-retransmission mechanism of the
// PBFT paper (§4.5): a replica that observes f+1 commits for a sequence it
// has no pre-prepare for recovers the proposal from the committers.
type FetchEntry struct {
	View    uint64
	Seq     uint64
	Replica ReplicaID
	Sig     []byte
}

// Type implements Message.
func (*FetchEntry) Type() MsgType { return MTFetchEntry }

func (m *FetchEntry) marshal(e *cdr.Encoder) {
	e.WriteULongLong(m.View)
	e.WriteULongLong(m.Seq)
	writeTail(e, m.Replica, m.Sig)
}

func (m *FetchEntry) unmarshal(d *cdr.Decoder) error {
	var err error
	if m.View, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.Seq, err = d.ReadULongLong(); err != nil {
		return err
	}
	return readTail(d, &m.Replica, &m.Sig)
}

func (m *FetchEntry) sigRef() *[]byte   { return &m.Sig }
func (m *FetchEntry) sender() ReplicaID { return m.Replica }

// maxProofEntries bounds repeated-element counts during decoding so a
// Byzantine sender cannot trigger huge allocations.
const maxProofEntries = 4096

// readList decodes a counted list — its length, then each item — refusing a
// count above maxProofEntries before anything is allocated for it. The
// marshal methods write their lists with plain loops: a generic writer's
// call through its type dictionary would let the encoder escape (see
// Encode).
func readList[T any, P interface {
	*T
	unmarshal(*cdr.Decoder) error
}](d *cdr.Decoder) ([]*T, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > maxProofEntries {
		return nil, fmt.Errorf("pbft: implausible list count %d", n)
	}
	items := make([]*T, n)
	for i := range items {
		items[i] = new(T)
		if err := P(items[i]).unmarshal(d); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// Encode serialises a message with its type tag in canonical (big-endian)
// CDR. The encoding is deterministic: it is the input to signatures and
// digests. It calls marshal on the concrete type, so the encoder stays on
// the stack: the buffer is the one allocation.
func Encode(m Message) []byte {
	e := cdr.NewEncoderOver(cdr.BigEndian, make([]byte, 0, encodedBound(m)))
	e.WriteOctet(byte(m.Type()))
	switch msg := m.(type) {
	case *Request:
		msg.marshal(e)
	case *PrePrepare:
		msg.marshal(e)
	case *Prepare:
		msg.marshal(e)
	case *Commit:
		msg.marshal(e)
	case *Reply:
		msg.marshal(e)
	case *Checkpoint:
		msg.marshal(e)
	case *ViewChange:
		msg.marshal(e)
	case *NewView:
		msg.marshal(e)
	case *FetchState:
		msg.marshal(e)
	case *StateData:
		msg.marshal(e)
	case *FetchEntry:
		msg.marshal(e)
	default:
		panic(fmt.Sprintf("pbft: Encode of %T", m))
	}
	return e.Bytes()
}

// encodedBound sizes Encode's buffer so that a message carrying a payload is
// written without regrowing it: the encoding's length for a request, at least
// that for a pre-prepare or a reply, and room for a phase message or a
// checkpoint otherwise (a view change or a new view grows from there).
func encodedBound(m Message) int {
	switch msg := m.(type) {
	case *Request:
		return msg.encodedSize()
	case *PrePrepare:
		n := 80 + len(msg.Sig)
		for _, req := range msg.Requests {
			n += req.encodedSize() + embeddedSlack
		}
		return n
	case *Reply:
		return 64 + len(msg.ClientID) + len(msg.Result) + len(msg.Sig)
	}
	return 256
}

// Decode parses a message from its canonical encoding. It never panics on
// malformed input and never writes buf; the octet fields it returns (a
// request's Op, Sig and Tags, a reply's Result, a snapshot, every signature)
// alias buf, so the caller must own it.
func Decode(buf []byte) (Message, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	tag, err := d.ReadOctet()
	if err != nil {
		return nil, fmt.Errorf("pbft: decode: %w", err)
	}
	var m Message
	switch MsgType(tag) {
	case MTRequest:
		m = &Request{}
	case MTPrePrepare:
		m = &PrePrepare{}
	case MTPrepare:
		m = &Prepare{}
	case MTCommit:
		m = &Commit{}
	case MTReply:
		m = &Reply{}
	case MTCheckpoint:
		m = &Checkpoint{}
	case MTViewChange:
		m = &ViewChange{}
	case MTNewView:
		m = &NewView{}
	case MTFetchState:
		m = &FetchState{}
	case MTStateData:
		m = &StateData{}
	case MTFetchEntry:
		m = &FetchEntry{}
	default:
		return nil, fmt.Errorf("pbft: unknown message type %d", tag)
	}
	if err := m.unmarshal(d); err != nil {
		return nil, fmt.Errorf("pbft: decode %s: %w", MsgType(tag), err)
	}
	return m, nil
}

// signingBytes returns what m's authenticator covers: its canonical
// encoding with the signature zeroed, except for a pre-prepare, whose
// signature covers its header alone — type, view, seq, batch digest and
// replica, laid out like a prepare — as Castro–Liskov's ⟨PRE-PREPARE, v, n,
// d⟩σ does, and a request, whose signature and tags both cover its digest
// form with the signature zeroed: its encoding up to the tag vector with Op
// replaced by SHA-256 of Op (Request.formDigest). A pre-prepare's digest
// binds the requests that travel with it, which every receiver checks
// (validBatch).
func signingBytes(m Message) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	switch msg := m.(type) {
	case *PrePrepare:
		e.WriteOctet(byte(MTPrePrepare))
		marshalPhase(e, msg.View, msg.Seq, msg.Digest, msg.Replica, nil)
		return e.Bytes()
	case *Request:
		op := sha256.Sum256(msg.Op)
		unsigned := Request{ClientID: msg.ClientID, ClientSeq: msg.ClientSeq, Op: op[:], ReplyTo: msg.ReplyTo}
		e.WriteOctet(byte(MTRequest))
		unsigned.marshalUntagged(e)
		return e.Bytes()
	}
	ref := m.sigRef()
	saved := *ref
	*ref = nil
	b := Encode(m)
	*ref = saved
	return b
}

// signingDigest returns SHA-256 of m's signing bytes, what its signature
// covers; a request's comes from its cache.
func signingDigest(m Message) Digest {
	if req, ok := m.(*Request); ok {
		if !req.hashed {
			req.rehash()
		}
		return req.signDigest
	}
	return sha256.Sum256(signingBytes(m))
}

func readDigest(d *cdr.Decoder, out *Digest) error {
	b, err := d.ReadOctets()
	if err != nil {
		return err
	}
	if len(b) != len(out) {
		return fmt.Errorf("pbft: digest length %d, want %d", len(b), len(out))
	}
	copy(out[:], b)
	return nil
}

// marshalPhase encodes the common (view, seq, digest, replica, sig) shape
// shared by Prepare and Commit.
func marshalPhase(e *cdr.Encoder, view, seq uint64, digest Digest, replica ReplicaID, sig []byte) {
	e.WriteULongLong(view)
	e.WriteULongLong(seq)
	e.WriteOctets(digest[:])
	writeTail(e, replica, sig)
}

// unmarshalPhase decodes the common phase-message shape.
func unmarshalPhase(d *cdr.Decoder, view, seq *uint64, digest *Digest, replica *ReplicaID, sig *[]byte) error {
	var err error
	if *view, err = d.ReadULongLong(); err != nil {
		return err
	}
	if *seq, err = d.ReadULongLong(); err != nil {
		return err
	}
	if err = readDigest(d, digest); err != nil {
		return err
	}
	return readTail(d, replica, sig)
}

// writeTail encodes the sender and authenticator every replica message ends
// with.
func writeTail(e *cdr.Encoder, replica ReplicaID, sig []byte) {
	e.WriteLong(int32(replica))
	e.WriteOctets(sig)
}

// readTail decodes what writeTail encodes.
func readTail(d *cdr.Decoder, replica *ReplicaID, sig *[]byte) (err error) {
	if err = readReplica(d, replica); err != nil {
		return err
	}
	*sig, err = d.ReadOctets()
	return err
}

func readReplica(d *cdr.Decoder, out *ReplicaID) error {
	v, err := d.ReadLong()
	if err != nil {
		return err
	}
	if v < 0 || v > 1<<20 {
		return fmt.Errorf("pbft: implausible replica id %d", v)
	}
	*out = ReplicaID(v)
	return nil
}
