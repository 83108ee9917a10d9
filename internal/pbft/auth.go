package pbft

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"fmt"
	"hash"
	"math/big"
	"sync"

	"itdos/internal/obs"
)

// MACSize is the length of one authenticator tag: HMAC-SHA256 truncated to
// 16 bytes, so the n = 4 tags of a commit take the room of one Ed25519
// signature.
const MACSize = 16

// Authenticator authenticates outgoing messages and checks incoming ones,
// by one of two mechanisms. Signatures are transferable: the paper signs
// messages ("each message is signed", §3.6) so that they can later be shown
// to the Group Manager as proof of Byzantine behaviour. MAC tags under a
// pairwise key convince only the one receiver they are addressed to, and
// cost a fiftieth; they protect the messages that never become proof.
// SignMessage and VerifyMessage choose between the two by message type. A
// request, which can become proof, carries both: its signature is checked
// where it arrives on its own, and a backup admits it inside a proposal on
// its tag (Replica.validBatch).
//
// Implementations must be safe for concurrent use: live environments verify
// from multiple connection goroutines.
type Authenticator interface {
	// Sign returns the local identity's signature over d, the SHA-256 digest
	// of a message's signing bytes.
	Sign(d Digest) []byte
	// Verify reports whether sig is sender's signature over d.
	Verify(sender string, d Digest, sig []byte) bool
	// MAC returns the MACSize-byte tag over msg under the key the local
	// identity shares with peer, or nil when there is no such key.
	MAC(peer string, msg []byte) []byte
	// VerifyMAC reports whether tag is the tag over msg under the key shared
	// with peer.
	VerifyMAC(peer string, msg, tag []byte) bool
	// Identity returns the local signer identity.
	Identity() string
}

// SignMessage authenticates m in place as auth's identity: a Reply carries
// the tag for its client, everything else a signature. A Commit carries one
// tag per replica of its group, and so does a Request beside its signature;
// only a party that knows the group can address them (Replica.sign,
// Client.Invoke), and outside a group they get none.
func SignMessage(auth Authenticator, m Message) { signIn(auth, m, nil) }

// VerifyMessage checks a request's signature. Every other message names its
// sender by index in a group, so it verifies only against that group's
// identities (Replica.verify, Client.HandleMessage).
func VerifyMessage(auth Authenticator, m Message) bool { return verifyIn(auth, m, -1, nil) }

// Identities returns the authentication identities of the n replicas of
// group: replica i is "group/r<i>", which is also its transport address.
func Identities(group string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s/r%d", group, i)
	}
	return ids
}

// signIn is SignMessage within a group whose replicas are ids. A commit's Sig
// holds one tag per replica, slot i under the key shared with ids[i]; the
// sender's own slot stays zero, as does that of a peer it has no key with. A
// request's Tags are laid out alike, one slot for every replica.
func signIn(auth Authenticator, m Message, ids []string) {
	switch msg := m.(type) {
	case *Commit:
		b := signingBytes(m)
		tags := make([]byte, len(ids)*MACSize)
		for i, id := range ids {
			if ReplicaID(i) != msg.Replica {
				copy(tags[i*MACSize:(i+1)*MACSize], auth.MAC(id, b))
			}
		}
		msg.Sig = tags
	case *Reply:
		msg.Sig = auth.MAC(msg.ClientID, signingBytes(m))
	case *Request:
		msg.sign(auth, ids)
	default:
		*m.sigRef() = auth.Sign(signingDigest(m))
	}
}

// requestTagInfo opens every request tag's preimage. No other tagged
// preimage starts with it — a commit's and a reply's open with their type
// octet — so a request tag never stands for another message's under the
// same pair key.
const requestTagInfo = "itdos/pbft-request-tag/1"

// requestTagBytes is what a request's tags cover: requestTagInfo and its
// 32-byte signing digest, which binds every field the signature binds.
func requestTagBytes(d Digest) []byte {
	b := make([]byte, 0, len(requestTagInfo)+len(d))
	return append(append(b, requestTagInfo...), d[:]...)
}

// requestTags returns a request's tag vector for the replicas ids over its
// signing digest d, or nil for no replicas.
func requestTags(auth Authenticator, d Digest, ids []string) []byte {
	if len(ids) == 0 {
		return nil
	}
	msg := requestTagBytes(d)
	tags := make([]byte, len(ids)*MACSize)
	for i, id := range ids {
		copy(tags[i*MACSize:(i+1)*MACSize], auth.MAC(id, msg))
	}
	return tags
}

// requestTagValid reports whether slot self of req's tag vector, for a group
// of n replicas, holds the tag req's client computes for that replica. A
// vector of another length is no vector: its slots cannot be told apart.
func requestTagValid(auth Authenticator, req *Request, self ReplicaID, n int) bool {
	if self < 0 || int(self) >= n || len(req.Tags) != n*MACSize {
		return false
	}
	return auth.VerifyMAC(req.ClientID, requestTagBytes(signingDigest(req)),
		req.Tags[int(self)*MACSize:(int(self)+1)*MACSize])
}

// verifyIn is VerifyMessage at replica self of the group whose replicas are
// ids (self is -1 at a client). A sender index outside ids is refused before
// any key is looked up. A commit counts only if it has one slot per replica
// and the receiver's own holds the sender's tag — the other slots are none of
// its business.
func verifyIn(auth Authenticator, m Message, self ReplicaID, ids []string) bool {
	from, signer := m.sender(), ""
	if req, ok := m.(*Request); ok {
		signer = req.ClientID
	} else if from >= 0 && int(from) < len(ids) {
		signer = ids[from]
	} else {
		return false
	}
	switch msg := m.(type) {
	case *Commit:
		n := len(ids)
		if from == self || self < 0 || int(self) >= n || len(msg.Sig) != n*MACSize {
			return false
		}
		return auth.VerifyMAC(signer, signingBytes(m), msg.Sig[int(self)*MACSize:(int(self)+1)*MACSize])
	case *Reply:
		return auth.VerifyMAC(signer, signingBytes(m), msg.Sig)
	default:
		return auth.Verify(signer, signingDigest(m), *m.sigRef())
	}
}

// meteredAuth counts the operations a replica asks of its authenticator
// (pbft_auth_ops_total). A replica authenticates on its loop goroutine only,
// which is what lets the counters be plain.
type meteredAuth struct {
	Authenticator
	signs, verifies, macs *obs.Counter
}

func (a *meteredAuth) Sign(d Digest) []byte {
	a.signs.Inc()
	return a.Authenticator.Sign(d)
}

func (a *meteredAuth) Verify(sender string, d Digest, sig []byte) bool {
	a.verifies.Inc()
	return a.Authenticator.Verify(sender, d, sig)
}

func (a *meteredAuth) MAC(peer string, msg []byte) []byte {
	a.macs.Inc()
	return a.Authenticator.MAC(peer, msg)
}

func (a *meteredAuth) VerifyMAC(peer string, msg, tag []byte) bool {
	a.macs.Inc()
	return a.Authenticator.VerifyMAC(peer, msg, tag)
}

// Keyring maps identities to Ed25519 public keys. It is populated from
// static configuration (the paper assumes authentication tokens are
// pre-distributed and protected, §2.2).
type Keyring struct {
	mu   sync.RWMutex
	pubs map[string]ed25519.PublicKey
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{pubs: make(map[string]ed25519.PublicKey)}
}

// Add registers identity's public key.
func (k *Keyring) Add(identity string, pub ed25519.PublicKey) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.pubs[identity] = pub
}

// Remove deletes an identity (used when a member is expelled).
func (k *Keyring) Remove(identity string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.pubs, identity)
}

// Lookup returns the public key for identity.
func (k *Keyring) Lookup(identity string) (ed25519.PublicKey, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	pub, ok := k.pubs[identity]
	return pub, ok
}

// Ed25519Auth authenticates with Ed25519 signatures against a shared
// keyring, and with HMAC-SHA256 tags under pairwise keys agreed from the
// same identities: each side converts its Ed25519 key and the peer's public
// key to X25519, so a pair key needs no key material beyond the keyring and
// no distribution round.
type Ed25519Auth struct {
	identity string
	priv     ed25519.PrivateKey
	ring     *Keyring
	// scalar is priv as an X25519 key, made once for every pair key to come;
	// nil when priv is no private key, and then no pair key is agreed.
	scalar *ecdh.PrivateKey

	// pairs caches one key per peer next to the public key it was agreed
	// with: an entry is good only while the keyring still holds that key.
	mu    sync.Mutex
	pairs map[string]pairKey
}

// pairKey is a cached pairwise MAC key and an HMAC keyed with it; key and mac
// are nil when agreement with pub was refused.
type pairKey struct {
	pub ed25519.PublicKey
	key []byte
	mac *keyedMAC
}

// keyedMAC is one HMAC-SHA256 keyed once and reused: Reset restores the
// padded key states it saved on first use, so a tag costs the two compression
// passes over its message and no allocation. The lock makes it safe for the
// concurrent callers an Authenticator has.
type keyedMAC struct {
	mu  sync.Mutex
	h   hash.Hash
	buf [sha256.Size]byte
}

func newKeyedMAC(key []byte) *keyedMAC {
	if key == nil {
		return nil
	}
	return &keyedMAC{h: hmac.New(sha256.New, key)}
}

// tag returns the MACSize-byte tag over msg.
func (k *keyedMAC) tag(msg []byte) (tag [MACSize]byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.h.Reset()
	k.h.Write(msg)
	copy(tag[:], k.h.Sum(k.buf[:0]))
	return tag
}

var _ Authenticator = (*Ed25519Auth)(nil)

// NewEd25519Auth returns an authenticator for identity holding priv,
// verifying against ring.
func NewEd25519Auth(identity string, priv ed25519.PrivateKey, ring *Keyring) *Ed25519Auth {
	scalar, _ := x25519Scalar(priv)
	return &Ed25519Auth{identity: identity, priv: priv, ring: ring, scalar: scalar, pairs: make(map[string]pairKey)}
}

// Sign implements Authenticator.
func (a *Ed25519Auth) Sign(d Digest) []byte {
	return SignDigest(a.priv, d)
}

// Verify implements Authenticator.
func (a *Ed25519Auth) Verify(sender string, d Digest, sig []byte) bool {
	pub, ok := a.ring.Lookup(sender)
	return ok && VerifyDigest(pub, d, sig)
}

// SignDigest is Ed25519 over the 32-byte digest d by the holder of priv. It
// and VerifyDigest are the system's one Ed25519 pair: every signature covers
// the SHA-256 of a preimage its layer hashes where the bytes lie — a PBFT
// message's signingBytes, a SMIOP data or reply-root context
// (smiop.DataSigningDigest, RootDigest) — so all of them move together.
// Ed25519 runs SHA-512 over its whole input twice to sign and once to
// verify; over a 32-byte commitment the message's bytes are hashed once, at
// SHA-256's speed. A signature binds
// its preimage only as far as SHA-256 resists collisions, which ordering
// already assumes of every digest it certifies (DESIGN §4).
func SignDigest(priv ed25519.PrivateKey, d Digest) []byte {
	return ed25519.Sign(priv, d[:])
}

// VerifyDigest reports whether sig is SignDigest's signature over d by the
// holder of pub.
func VerifyDigest(pub ed25519.PublicKey, d Digest, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, d[:], sig)
}

// MAC implements Authenticator.
func (a *Ed25519Auth) MAC(peer string, msg []byte) []byte {
	mac := a.pair(peer).mac
	if mac == nil {
		return nil
	}
	tag := mac.tag(msg)
	return tag[:]
}

// VerifyMAC implements Authenticator.
func (a *Ed25519Auth) VerifyMAC(peer string, msg, tag []byte) bool {
	mac := a.pair(peer).mac
	if mac == nil {
		return false
	}
	want := mac.tag(msg)
	return hmac.Equal(tag, want[:])
}

// Identity implements Authenticator.
func (a *Ed25519Auth) Identity() string { return a.identity }

// pair returns the MAC key shared with peer and its keyed HMAC, deriving
// them on first use from the public key the keyring holds now. An identity
// the keyring no longer knows, or knows under another key, loses its cached
// key here: an expelled member's tags stop verifying with its signatures.
func (a *Ed25519Auth) pair(peer string) pairKey {
	pub, ok := a.ring.Lookup(peer)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !ok {
		delete(a.pairs, peer)
		return pairKey{}
	}
	if pk, hit := a.pairs[peer]; hit && bytes.Equal(pk.pub, pub) {
		return pk
	}
	// A refusal is cached as a nil key; why matters to nobody on the message
	// path, which drops the message either way.
	key, _ := derivePairKey(a.identity, a.scalar, peer, pub)
	pk := pairKey{pub: pub, key: key, mac: newKeyedMAC(key)}
	a.pairs[peer] = pk
	return pk
}

// pairKeyInfo domain-separates the pair key from every other use of the
// X25519 shared secret.
const pairKeyInfo = "itdos/pbft-mac/1"

// derivePairKey agrees the MAC key between the holder of scalar, named self,
// and the holder of the private half of pub, named peer. One identity
// serves signing and key agreement: scalar is x25519Scalar of self's Ed25519
// key, and the peer's Montgomery u = (1+y)/(1−y) is the birational image of
// its Edwards public point. The key is HMAC-SHA256(shared secret, info ‖
// lower id ‖ 0 ‖ higher id), the same bytes on both sides.
func derivePairKey(self string, scalar *ecdh.PrivateKey, peer string, pub ed25519.PublicKey) ([]byte, error) {
	shared, err := sharedSecret(scalar, pub)
	if err != nil {
		return nil, fmt.Errorf("pbft: pair key %s–%s: %w", self, peer, err)
	}
	lo, hi := self, peer
	if hi < lo {
		lo, hi = hi, lo
	}
	mac := hmac.New(sha256.New, shared)
	mac.Write([]byte(pairKeyInfo))
	mac.Write([]byte(lo))
	mac.Write([]byte{0})
	mac.Write([]byte(hi))
	return mac.Sum(nil), nil
}

// x25519Scalar returns the X25519 private key an Ed25519 key multiplies by:
// the clamped SHA-512(seed)[:32].
func x25519Scalar(priv ed25519.PrivateKey) (*ecdh.PrivateKey, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("no private key")
	}
	h := sha512.Sum512(priv.Seed())
	return ecdh.X25519().NewPrivateKey(h[:32])
}

// sharedSecret is X25519 between scalar and the Ed25519 public key pub.
func sharedSecret(scalar *ecdh.PrivateKey, pub ed25519.PublicKey) ([]byte, error) {
	if scalar == nil {
		return nil, fmt.Errorf("no private key")
	}
	u, err := montgomeryU(pub)
	if err != nil {
		return nil, err
	}
	point, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		return nil, err
	}
	// ECDH refuses a low-order point (all-zero shared secret).
	return scalar.ECDH(point)
}

// curve25519P is the field prime 2^255 − 19.
var curve25519P = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// montgomeryU maps an Ed25519 public key (little-endian y, sign of x in the
// top bit) to the X25519 u-coordinate (1+y)/(1−y) mod p.
func montgomeryU(pub ed25519.PublicKey) ([]byte, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("public key of %d bytes", len(pub))
	}
	be := make([]byte, len(pub))
	for i, b := range pub {
		be[len(pub)-1-i] = b
	}
	be[0] &= 0x7f
	y := new(big.Int).SetBytes(be)
	den := new(big.Int).Sub(big.NewInt(1), y)
	den.Mod(den, curve25519P)
	if den.ModInverse(den, curve25519P) == nil {
		return nil, fmt.Errorf("public key is the neutral point")
	}
	u := new(big.Int).Add(big.NewInt(1), y)
	u.Mul(u, den).Mod(u, curve25519P)
	out := u.FillBytes(make([]byte, 32))
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// DeriveIdentity derives identity's Ed25519 keypair deterministically from
// a shared seed (HMAC-SHA256(seed, identity) is exactly the 32-byte
// ed25519 key seed), registering the public key in the ring. It is the one
// way a key is made: independently built processes of a cluster use it to
// agree on all key material without a key-distribution round, and the
// seed must stay as secret as the private keys it generates.
func DeriveIdentity(identity string, seed []byte, ring *Keyring) (ed25519.PrivateKey, error) {
	if len(seed) == 0 || ring == nil {
		return nil, fmt.Errorf("pbft: derive key for %s: needs a seed and a keyring", identity)
	}
	mac := hmac.New(sha256.New, seed)
	mac.Write([]byte(identity))
	priv := ed25519.NewKeyFromSeed(mac.Sum(nil))
	ring.Add(identity, priv.Public().(ed25519.PublicKey))
	return priv, nil
}
