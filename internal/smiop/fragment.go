package smiop

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Large-message fragmentation — the paper's §4 future-work item
// ("Transferring large objects poses another obstacle... we must find an
// efficient way of moving larger messages through the system with
// confidentiality, authentication, and integrity").
//
// The sender signs the whole GIOP message once (one signature per logical
// message, not per fragment, keeping the signing cost the paper worries
// about sub-linear in fragment count), then splits the signed payload into
// fixed-size chunks, each sealed independently under the connection key —
// so every fragment is individually confidential and integrity-protected,
// and a corrupted fragment is rejected before reassembly. The receiver
// reassembles in order and runs the ordinary verify→unmarshal→vote
// pipeline on the whole message.

// DefaultFragmentSize is the chunk size used when a caller passes 0: the
// largest fragment one ordered request carries as the lone payload it is, or
// as a pack of one. It is srm.MaxPackBytes (32 KiB) less 164 octets: the
// pack's marker, count and entry length (16), the envelope's cleartext
// header and sealed length for a source domain name of up to 64 octets
// (120), and the seal's sequence number, length and tag (28). A message cut
// only there crosses the ordering layer in as few requests as it can, and
// one a little over 16 KiB, an echo_16k call or reply, is not cut at all. A
// longer domain name costs a full fragment only the room to share a pack: a
// lone payload is bounded by pbft.MaxRequestBytes, twice as much.
// srm's TestFragmentFitsPack pins the arithmetic: smiop cannot name srm's
// constants, since srm imports pbft, whose tests import smiop.
const DefaultFragmentSize = 32<<10 - 164

// maxFragments bounds reassembly so a Byzantine sender cannot claim an
// enormous fragment count.
const maxFragments = 1 << 14

// MaxMessageBytes bounds one message's signed payload, fragmented or not:
// a sender refuses to seal more, and a receiver refuses, and counts, a
// fragmented message that claims more. A receiver sizes a message's
// reassembly buffer from its first fragment, so the bound is also the most
// one member can make it hold for one request id.
const MaxMessageBytes = 4 << 20

// errDuplicateFragment reports a fragment whose place is already filled:
// the cipher layer rejects replays, so this is a sender bug or attack, and
// the fragment is ignored.
var errDuplicateFragment = errors.New("smiop: duplicate fragment")

// errOversize reports a fragmented message that claims more than
// MaxMessageBytes.
var errOversize = errors.New("smiop: message exceeds MaxMessageBytes")

// fragmentBuffer reassembles one sender's fragmented message for the
// current request id. Every fragment but the last carries chunk bytes, as
// the sender cuts them, so fragment i opens straight into buf at i*chunk.
type fragmentBuffer struct {
	requestID uint64
	reply     bool
	count     uint32
	// chunk is the plaintext length of every fragment but the last, known
	// from the first of them to arrive; buf exists from then on. A last
	// fragment that comes first waits in tail.
	chunk int
	buf   []byte
	tail  []byte
	// msgLen is the message length, known once the last fragment is in.
	msgLen int
	got    []bool
	have   uint32
	// unvouched is set by the first fragment whose sender the ordering
	// layer did not authenticate as the identity the message claims.
	unvouched bool
}

// reassembler collects fragments per sending member. State for a member is
// replaced whenever an authenticated fragment for a different (requestID,
// reply, count) context arrives, and dropped entirely on Reset — the same
// garbage-collection discipline as the voter (paper §3.6). Nothing a
// fragment claims changes that state before the fragment authenticates:
// slot only reads it, and take and commit run after the open.
type reassembler struct {
	byMember map[uint32]*fragmentBuffer
}

func newReassembler() *reassembler {
	return &reassembler{byMember: make(map[uint32]*fragmentBuffer)}
}

// holds reports whether env belongs to the message fb reassembles.
func (fb *fragmentBuffer) holds(env *Envelope) bool {
	return fb.requestID == env.RequestID && fb.reply == env.Reply && fb.count == env.FragCount
}

// slot returns where fragment env's n plaintext bytes open to: its place in
// the layout the member's buffer for env's message has set. It returns nil
// and no error when there is no such place yet — no buffer, a buffer of
// another message, or no layout — and the caller opens the fragment apart
// and hands the plaintext to take. A fragment whose length does not fit the
// layout, a count out of range and a place already filled
// (errDuplicateFragment) are refused. slot changes nothing: a place it
// returns is empty, so an open that fails there (and clears it) loses
// nothing.
func (r *reassembler) slot(env *Envelope, n int) ([]byte, error) {
	if env.FragCount < 2 || env.FragCount > maxFragments || env.FragIndex >= env.FragCount {
		return nil, fmt.Errorf("smiop: invalid fragment %d/%d", env.FragIndex, env.FragCount)
	}
	if n < 1 || n > MaxMessageBytes {
		return nil, fmt.Errorf("smiop: fragment %d/%d of %d bytes", env.FragIndex, env.FragCount, n)
	}
	fb := r.byMember[env.SrcMember]
	if fb == nil || !fb.holds(env) {
		return nil, nil
	}
	if fb.got[env.FragIndex] {
		return nil, errDuplicateFragment
	}
	if fb.buf == nil {
		return nil, nil
	}
	return fb.place(env.FragIndex, n)
}

// take moves fragment env's plaintext pt, opened apart and authenticated,
// into the member's buffer for env's message, starting that buffer (and
// dropping one of another message) if need be, and returns its place
// there. The first fragment in sets the layout: fragment 0 sizes the buffer
// from its leading GIOP length, since the signed payload holds no more than
// the GIOP octets, their padding and a Sig of at most maxSigSize octets;
// another sizes it as count fragments of its own length; a last fragment
// waits apart until one of the others comes. A message over
// MaxMessageBytes (errOversize) or a fragment off the layout is refused
// before anything is allocated for it.
func (r *reassembler) take(env *Envelope, pt []byte) ([]byte, error) {
	fb := r.byMember[env.SrcMember]
	if fb == nil || !fb.holds(env) {
		fb = &fragmentBuffer{
			requestID: env.RequestID,
			reply:     env.Reply,
			count:     env.FragCount,
			got:       make([]bool, env.FragCount),
		}
		r.byMember[env.SrcMember] = fb
	}
	i, n := env.FragIndex, len(pt)
	if fb.got[i] {
		return nil, errDuplicateFragment
	}
	if fb.buf == nil {
		total := uint64(fb.count) * uint64(n)
		switch {
		case i == fb.count-1:
			fb.tail = bytes.Clone(pt)
			return fb.tail, nil
		case i == 0 && n >= 4:
			glen := uint64(binary.BigEndian.Uint32(pt))
			total = min(total, (4+glen+3)&^3+4+maxSigSize)
		}
		if err := fb.alloc(n, total); err != nil {
			return nil, err
		}
	}
	dst, err := fb.place(i, n)
	if err != nil {
		return nil, err
	}
	copy(dst, pt)
	return dst, nil
}

// alloc sizes the buffer at total bytes for fragments of chunk bytes, and
// moves a last fragment that came first into place.
func (fb *fragmentBuffer) alloc(chunk int, total uint64) error {
	if total > MaxMessageBytes {
		return fmt.Errorf("%w: %d fragments of %d bytes", errOversize, fb.count, chunk)
	}
	lastOff := int(fb.count-1) * chunk
	if int(total) <= lastOff {
		return fmt.Errorf("smiop: message of %d bytes in %d fragments of %d", total, fb.count, chunk)
	}
	lastIn := fb.got[fb.count-1]
	if lastIn && (len(fb.tail) > chunk || lastOff+len(fb.tail) > int(total)) {
		return fmt.Errorf("smiop: last fragment of %d bytes after fragments of %d", len(fb.tail), chunk)
	}
	fb.chunk = chunk
	fb.buf = make([]byte, total)
	if lastIn {
		fb.msgLen = lastOff + copy(fb.buf[lastOff:], fb.tail)
		fb.tail = nil
	}
	return nil
}

// place returns fragment i's place for its n bytes in the buffer.
func (fb *fragmentBuffer) place(i uint32, n int) ([]byte, error) {
	off := int(i) * fb.chunk
	if i < fb.count-1 && n != fb.chunk || i == fb.count-1 && (n > fb.chunk || off+n > len(fb.buf)) {
		return nil, fmt.Errorf("smiop: fragment %d/%d of %d bytes in a message of %d-byte fragments",
			i, fb.count, n, fb.chunk)
	}
	return fb.buf[off : off+n], nil
}

// commit records that fragment env opened into the place slot or take gave
// it, and returns the whole message when env completes it, or nil. vouched
// says whether this fragment's ordered sender is the identity env claims;
// the whole message is reported vouched only if every one of its fragments
// was.
func (r *reassembler) commit(env *Envelope, n int, vouched bool) ([]byte, bool) {
	fb := r.byMember[env.SrcMember]
	if fb == nil || fb.requestID != env.RequestID || fb.reply != env.Reply {
		return nil, false // reset while the fragment opened
	}
	fb.got[env.FragIndex] = true
	fb.have++
	if env.FragIndex == env.FragCount-1 && fb.buf != nil {
		fb.msgLen = int(env.FragCount-1)*fb.chunk + n
	}
	if !vouched {
		fb.unvouched = true
	}
	if fb.have < fb.count {
		return nil, false
	}
	delete(r.byMember, env.SrcMember)
	return fb.buf[:fb.msgLen:fb.msgLen], !fb.unvouched
}

// reset drops all reassembly state (called when the stream moves to a new
// request id).
func (r *reassembler) reset() {
	r.byMember = make(map[uint32]*fragmentBuffer)
}
