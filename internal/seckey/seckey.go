// Package seckey implements ITDOS session security: symmetric
// communication keys protecting client↔server traffic (paper §2, §3.5),
// authenticated encryption, and replay protection.
//
// The paper's prototype used 2002-era primitives (DES, MD5/RSA); this
// implementation substitutes modern stdlib equivalents with the same
// architectural role: AES-256-GCM, which encrypts and authenticates in one
// pass over the bytes, for confidentiality+integrity, and explicit sequence
// numbers inside the authenticated header for replay protection ("each
// message contains a sequence number to protect against replay", §3.6).
package seckey

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeySize is the communication key length in bytes.
const KeySize = 32

// Key is a symmetric communication key shared by a client/server
// replication domain pair.
type Key [KeySize]byte

// KeyFromBytes copies b into a Key.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("seckey: key must be %d bytes, got %d", KeySize, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// derive produces a purpose-bound subkey from the communication key.
func (k Key) derive(purpose string) []byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte(purpose))
	return mac.Sum(nil)
}

const (
	tagSize   = 16    // GCM tag
	nonceSize = 12    // GCM nonce
	headerLen = 8 + 4 // seqno + payload length
)

// Sealed-message framing constants for callers that reserve the seal
// region in a shared buffer (zero-copy pipeline):
//
//	seq(8) | len(4) | ciphertext | tag(16)
const (
	// SealHeadLen is the fixed prefix before the ciphertext.
	SealHeadLen = headerLen
	// SealTailLen is the GCM tag appended after the ciphertext.
	SealTailLen = tagSize
)

// SealedLen returns the sealed size of an n-byte plaintext.
func SealedLen(n int) int { return SealHeadLen + n + SealTailLen }

// ErrAuthentication is returned when a sealed message fails integrity
// verification.
var ErrAuthentication = errors.New("seckey: message authentication failed")

// ErrReplay is returned when a sealed message's sequence number was already
// accepted or is too old.
var ErrReplay = errors.New("seckey: replayed or stale sequence number")

// Channel seals and opens messages under one communication key. A Channel
// is directional state for replay protection: use one per (sender,
// receiver) flow. Not safe for concurrent use.
//
// The AES-GCM key schedule is expanded once at NewChannel and reused for
// every message, so a batch of envelopes (e.g. the fragments of one large
// message) seals with no per-message key setup or allocation.
//
// The nonce of the message with sequence number seq is the channel's IV
// XOR seq, as in TLS 1.3: unique per (key, context) as long as no two
// plaintexts are sealed under one seq, which a channel guarantees by
// counting — so a sender that restarts needs a fresh key or context, never
// a fresh Channel over an old one (DESIGN §9). Nonces use no randomness:
// sealing is reproducible, which the deterministic simulator relies on.
type Channel struct {
	aead  cipher.AEAD
	iv    [nonceSize]byte
	nonce [nonceSize]byte // scratch for the current message's nonce
	ad    []byte          // scratch for the current message's associated data: ad ‖ seq ‖ len

	sendSeq uint64
	window  replayWindow
}

// NewChannel builds a channel from a communication key. The context string
// binds the derived key and IV to a connection identity (e.g. "connA→B") so
// the same communication key never keys two flows identically.
func NewChannel(k Key, context string) *Channel {
	block, err := aes.NewCipher(k.derive("enc:" + context))
	if err != nil {
		// derive always yields a 32-byte key; aes.NewCipher cannot fail on it.
		panic(fmt.Sprintf("seckey: cipher: %v", err))
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(fmt.Sprintf("seckey: gcm: %v", err))
	}
	c := &Channel{aead: aead}
	copy(c.iv[:], k.derive("iv:"+context))
	return c
}

// nonceFor returns the nonce of sequence number seq, in the channel's
// scratch.
func (c *Channel) nonceFor(seq uint64) []byte {
	c.nonce = c.iv
	tail := c.nonce[nonceSize-8:]
	binary.BigEndian.PutUint64(tail, binary.BigEndian.Uint64(tail)^seq)
	return c.nonce[:]
}

// Seal encrypts and authenticates plaintext, assigning the next send
// sequence number. Output layout:
//
//	seq(8) | len(4) | ciphertext | tag(16)
//
// The header is the associated data: authenticated, not encrypted.
func (c *Channel) Seal(plaintext []byte) ([]byte, error) {
	out := make([]byte, SealedLen(len(plaintext)))
	c.SealTo(out, 0, plaintext, nil)
	return out, nil
}

// SealTo seals plaintext into a region the caller reserved in buf:
// exactly SealedLen(len(plaintext)) bytes starting at start. The
// plaintext may alias the region's ciphertext span exactly (the caller
// staged it at start+SealHeadLen and the encryption happens in place) or
// live elsewhere (one-pass encrypt-copy) — either way no intermediate
// sealed buffer is allocated. ad is cleartext sent beside the seal (an
// envelope header), authenticated ahead of the seal header; with none the
// bytes are Seal's.
func (c *Channel) SealTo(buf []byte, start int, plaintext, ad []byte) {
	c.sendSeq++
	out := buf[start : start+SealedLen(len(plaintext))]
	binary.BigEndian.PutUint64(out[0:8], c.sendSeq)
	binary.BigEndian.PutUint32(out[8:12], uint32(len(plaintext)))
	c.ad = append(append(c.ad[:0], ad...), out[:headerLen]...)
	c.aead.Seal(out[headerLen:headerLen:len(out)], c.nonceFor(c.sendSeq), plaintext, c.ad)
}

// Open verifies and decrypts a sealed message into a fresh buffer,
// enforcing replay protection: OpenTo with a destination of its own.
func (c *Channel) Open(sealed []byte) ([]byte, error) {
	return c.OpenTo(make([]byte, max(OpenedLen(sealed), 0)), sealed, nil)
}

// OpenTo verifies and decrypts a sealed message into dst, which its caller
// owns, and returns the plaintext: dst's first OpenedLen(sealed) bytes. dst
// either lies apart from sealed or is sealed's ciphertext span itself
// (sealed[SealHeadLen:]), which decrypts the message in place. A sequence
// number the replay window refuses is refused before anything is written;
// a message that fails authentication leaves dst zeroed, as AES-GCM does,
// so a refused in-place open has destroyed the frame it was given. ad is
// the associated data SealTo was given; any other fails authentication.
func (c *Channel) OpenTo(dst, sealed, ad []byte) ([]byte, error) {
	if len(sealed) < headerLen+tagSize {
		return nil, fmt.Errorf("seckey: sealed message too short: %d bytes", len(sealed))
	}
	seq := binary.BigEndian.Uint64(sealed[0:8])
	plen := int(binary.BigEndian.Uint32(sealed[8:12]))
	if plen != len(sealed)-headerLen-tagSize {
		return nil, fmt.Errorf("seckey: length field %d does not match body", plen)
	}
	if len(dst) < plen {
		return nil, fmt.Errorf("seckey: destination of %d bytes for a %d-byte plaintext", len(dst), plen)
	}
	if !c.window.fresh(seq) {
		return nil, ErrReplay
	}
	c.ad = append(append(c.ad[:0], ad...), sealed[:headerLen]...)
	pt, err := c.aead.Open(dst[:0], c.nonceFor(seq), sealed[headerLen:], c.ad)
	if err != nil {
		return nil, ErrAuthentication
	}
	// The window moves only after authentication: forged sequence numbers
	// must not poison it.
	c.window.accept(seq)
	return pt, nil
}

// OpenedLen is the plaintext length of a sealed message of well-formed
// length, or -1 for one too short to hold a seal.
func OpenedLen(sealed []byte) int {
	if len(sealed) < headerLen+tagSize {
		return -1
	}
	return len(sealed) - headerLen - tagSize
}

// replayWindow is a sliding 64-entry anti-replay bitmap, as in IPsec.
type replayWindow struct {
	top  uint64
	bits uint64
}

// fresh reports whether accept would take seq, without moving the window.
func (w *replayWindow) fresh(seq uint64) bool {
	switch {
	case seq == 0:
		return false
	case seq > w.top:
		return true
	case w.top-seq >= 64:
		return false
	default:
		return w.bits&(uint64(1)<<(w.top-seq)) == 0
	}
}

func (w *replayWindow) accept(seq uint64) bool {
	switch {
	case seq == 0:
		return false
	case seq > w.top:
		shift := seq - w.top
		if shift >= 64 {
			w.bits = 0
		} else {
			w.bits <<= shift
		}
		w.bits |= 1
		w.top = seq
		return true
	case w.top-seq >= 64:
		return false // too old to track
	default:
		mask := uint64(1) << (w.top - seq)
		if w.bits&mask != 0 {
			return false
		}
		w.bits |= mask
		return true
	}
}

// Pairwise derives the static pairwise key between a Group Manager element
// and a replication domain element from a shared configuration secret (the
// paper assumes pre-established pairwise shared symmetric keys, §3.5 fn 2).
func Pairwise(configSecret []byte, gmElement, domainElement string) Key {
	mac := hmac.New(sha256.New, configSecret)
	mac.Write([]byte("pairwise|"))
	mac.Write([]byte(gmElement))
	mac.Write([]byte{0})
	mac.Write([]byte(domainElement))
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}
