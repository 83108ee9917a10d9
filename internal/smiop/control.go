package smiop

import (
	"fmt"

	"itdos/internal/cdr"
)

// OpenRequest asks the Group Manager to establish (or re-announce) a
// connection between two replication domains (step 1 of Figure 3). The
// requester identity comes from the enclosing envelope and the underlying
// authenticated transport.
type OpenRequest struct {
	// Initiator and Target are replication domain names; a singleton
	// client's "domain" is its own name with N=1.
	Initiator string
	Target    string
}

// Encode serialises the request.
func (r *OpenRequest) Encode() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString(r.Initiator)
	e.WriteString(r.Target)
	return e.Bytes()
}

// DecodeOpenRequest parses an OpenRequest payload.
func DecodeOpenRequest(buf []byte) (*OpenRequest, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	var r OpenRequest
	var err error
	if r.Initiator, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("smiop: open request: %w", err)
	}
	if r.Target, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("smiop: open request: %w", err)
	}
	return &r, nil
}

// RekeyRequest asks the Group Manager to advance every connection a
// domain participates in to a fresh key era without expelling anyone. It
// is the feedback-scheduled rekey of the intrusion-tolerance controller:
// rising suspicion shortens the key epoch instead of waiting for proof
// that would justify expulsion. The Group Manager only honours the
// request when the enclosing envelope's authenticated sender is the
// configured controller identity.
type RekeyRequest struct {
	// Domain is the replication domain (or client pseudo-domain) whose
	// connections should move to a new era.
	Domain string
}

// Encode serialises the request.
func (r *RekeyRequest) Encode() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString(r.Domain)
	return e.Bytes()
}

// DecodeRekeyRequest parses a RekeyRequest payload.
func DecodeRekeyRequest(buf []byte) (*RekeyRequest, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	var r RekeyRequest
	var err error
	if r.Domain, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("smiop: rekey request: %w", err)
	}
	return &r, nil
}

func encodePeerInfo(e *cdr.Encoder, p PeerInfo) {
	e.WriteString(p.Name)
	e.WriteULong(uint32(p.N))
	e.WriteULong(uint32(p.F))
}

func decodePeerInfo(d *cdr.Decoder) (PeerInfo, error) {
	var p PeerInfo
	name, err := d.ReadString()
	if err != nil {
		return p, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return p, err
	}
	f, err := d.ReadULong()
	if err != nil {
		return p, err
	}
	if n > 1<<16 || f > 1<<16 {
		return p, fmt.Errorf("smiop: implausible peer group %d/%d", n, f)
	}
	p = PeerInfo{Name: name, N: int(n), F: int(f)}
	return p, p.Validate()
}

func encodeU32s(e *cdr.Encoder, xs []uint32) {
	e.WriteULong(uint32(len(xs)))
	for _, x := range xs {
		e.WriteULong(x)
	}
}

func decodeU32s(d *cdr.Decoder) ([]uint32, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("smiop: implausible list length %d", n)
	}
	out := make([]uint32, n)
	for i := range out {
		if out[i], err = d.ReadULong(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ShareBundle carries one Group Manager element's DPRF key share for a
// connection to every member of a receiving domain (steps 2 and 3 of
// Figure 3). For a replicated domain the bundle travels through that
// domain's Castro–Liskov ordering — exactly as the paper specifies ("The
// communication keys are first sent to the target replication domain
// (using the Castro-Liskov transport)") — which makes key cut-over a
// deterministic point in every element's delivery stream. For a singleton
// client the bundle is sent directly.
//
// Each member's share is individually sealed under the pairwise key it
// shares with the sending GM element, so elements cannot read each other's
// shares (paper §3.5 fn 2).
type ShareBundle struct {
	ConnID uint64
	// Era is the key generation: 0 at establishment, incremented per rekey.
	Era uint64
	// Initiator and Target describe the two endpoints of the connection.
	Initiator PeerInfo
	Target    PeerInfo
	// ExpelledInitiator / ExpelledTarget are members keyed out as of this
	// era.
	ExpelledInitiator []uint32
	ExpelledTarget    []uint32
	// GMMember identifies the sending Group Manager element.
	GMMember uint32
	// Shares holds, per member index of the receiving domain, that
	// member's sealed share.
	Shares [][]byte
}

// Encode serialises the bundle.
func (b *ShareBundle) Encode() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULongLong(b.ConnID)
	e.WriteULongLong(b.Era)
	encodePeerInfo(e, b.Initiator)
	encodePeerInfo(e, b.Target)
	encodeU32s(e, b.ExpelledInitiator)
	encodeU32s(e, b.ExpelledTarget)
	e.WriteULong(b.GMMember)
	e.WriteULong(uint32(len(b.Shares)))
	for _, s := range b.Shares {
		e.WriteOctets(s)
	}
	return e.Bytes()
}

// DecodeShareBundle parses a bundle payload. The shares alias buf.
func DecodeShareBundle(buf []byte) (*ShareBundle, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	var b ShareBundle
	var err error
	if b.ConnID, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("smiop: share bundle: %w", err)
	}
	if b.Era, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("smiop: share bundle: %w", err)
	}
	if b.Initiator, err = decodePeerInfo(d); err != nil {
		return nil, fmt.Errorf("smiop: share bundle initiator: %w", err)
	}
	if b.Target, err = decodePeerInfo(d); err != nil {
		return nil, fmt.Errorf("smiop: share bundle target: %w", err)
	}
	if b.ExpelledInitiator, err = decodeU32s(d); err != nil {
		return nil, err
	}
	if b.ExpelledTarget, err = decodeU32s(d); err != nil {
		return nil, err
	}
	if b.GMMember, err = d.ReadULong(); err != nil {
		return nil, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("smiop: implausible share count %d", n)
	}
	b.Shares = make([][]byte, n)
	for i := range b.Shares {
		if b.Shares[i], err = d.ReadOctets(); err != nil {
			return nil, err
		}
	}
	return &b, nil
}

// ProofItem is one signed message presented as evidence in a
// change_request: the cleartext GIOP bytes a member sent plus its
// signature over the digest of its data context (see DataSigningDigest).
type ProofItem struct {
	Member uint32
	GIOP   []byte
	Sig    []byte
}

// ChangeRequest asks the Group Manager to expel a faulty replication
// domain element (paper §3.6). A singleton accuser must attach proof: the
// signed messages through which the fault was detected. Members of a
// replication domain accuse without proof, but the Group Manager requires
// f+1 matching accusations from distinct members before acting.
type ChangeRequest struct {
	// TargetDomain is the domain the accused belongs to.
	TargetDomain string
	// Accused is the member index to expel.
	Accused uint32
	// ConnID and RequestID locate the vote in which the fault was seen.
	ConnID    uint64
	RequestID uint64
	// Reply records the message direction (needed to reconstruct the
	// signing context).
	Reply bool
	// Interface and Operation identify the message signature so the Group
	// Manager's marshalling engine can unmarshal and re-vote the values.
	Interface string
	Operation string
	// Proof holds the accused's conflicting message and the f+1 agreeing
	// messages (empty for domain-originated accusations).
	Proof []ProofItem
}

// Encode serialises the change request.
func (c *ChangeRequest) Encode() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString(c.TargetDomain)
	e.WriteULong(c.Accused)
	e.WriteULongLong(c.ConnID)
	e.WriteULongLong(c.RequestID)
	e.WriteBoolean(c.Reply)
	e.WriteString(c.Interface)
	e.WriteString(c.Operation)
	e.WriteULong(uint32(len(c.Proof)))
	for _, p := range c.Proof {
		e.WriteULong(p.Member)
		e.WriteOctets(p.GIOP)
		e.WriteOctets(p.Sig)
	}
	return e.Bytes()
}

// DecodeChangeRequest parses a change request payload. The proof items'
// GIOP and Sig alias buf.
func DecodeChangeRequest(buf []byte) (*ChangeRequest, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	var c ChangeRequest
	var err error
	if c.TargetDomain, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("smiop: change request: %w", err)
	}
	if c.Accused, err = d.ReadULong(); err != nil {
		return nil, err
	}
	if c.ConnID, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	if c.RequestID, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	if c.Reply, err = d.ReadBoolean(); err != nil {
		return nil, err
	}
	if c.Interface, err = d.ReadString(); err != nil {
		return nil, err
	}
	if c.Operation, err = d.ReadString(); err != nil {
		return nil, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("smiop: implausible proof count %d", n)
	}
	c.Proof = make([]ProofItem, n)
	for i := range c.Proof {
		if c.Proof[i].Member, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if c.Proof[i].GIOP, err = d.ReadOctets(); err != nil {
			return nil, err
		}
		if c.Proof[i].Sig, err = d.ReadOctets(); err != nil {
			return nil, err
		}
	}
	return &c, nil
}
