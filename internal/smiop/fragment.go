package smiop

import (
	"bytes"
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
// fragmented message that claims more, so the bound is also the most one
// member can make it hold for one request id.
const MaxMessageBytes = 4 << 20

// errDuplicateFragment reports a fragment whose place is already filled:
// the cipher layer rejects replays, so this is a sender bug or attack, and
// the fragment is ignored.
var errDuplicateFragment = errors.New("smiop: duplicate fragment")

// errOversize reports a fragment outside the bounds reassembly keeps: a
// count above maxFragments, an index outside the count, or a message that
// claims more than MaxMessageBytes.
var errOversize = errors.New("smiop: fragment outside maxFragments or MaxMessageBytes")

// fragmentBuffer reassembles one sender's fragmented message for the
// current request id.
type fragmentBuffer struct {
	requestID uint64
	reply     bool
	// parts holds each opened fragment in its index's place, nil until it
	// arrives. A fragment of an owned delivery is a slice of its frame.
	parts [][]byte
	have  uint32
	// chunk is the length of every fragment but the last, set by the first
	// of them to arrive.
	chunk int
	// unvouched is set by the first fragment whose sender the ordering
	// layer did not authenticate as the identity the message claims.
	unvouched bool
}

// reassembler collects fragments per sending member. State for a member is
// replaced whenever a fragment for a different (requestID, reply, count)
// context is added, and dropped entirely on reset — the same
// garbage-collection discipline as the voter (paper §3.6). Only opened,
// authenticated fragments are added; filled, which only reads, may run
// before the open.
type reassembler struct {
	byMember map[uint32]*fragmentBuffer
}

func newReassembler() *reassembler {
	return &reassembler{byMember: make(map[uint32]*fragmentBuffer)}
}

// holds reports whether env belongs to the message fb reassembles.
func (fb *fragmentBuffer) holds(env *Envelope) bool {
	return fb.requestID == env.RequestID && fb.reply == env.Reply && len(fb.parts) == int(env.FragCount)
}

// filled reports whether fragment env's place in its member's message is
// already taken, so that a replay is ignored without being opened.
func (r *reassembler) filled(env *Envelope) bool {
	fb := r.byMember[env.SrcMember]
	return fb != nil && fb.holds(env) && env.FragIndex < env.FragCount && fb.parts[env.FragIndex] != nil
}

// add stores fragment env's plaintext pt, opened and authenticated, and
// returns the whole message when pt completes it, or nil. vouched says
// whether this fragment's ordered sender is the identity env claims; the
// whole message is reported vouched only if every one of its fragments was.
// A fragment outside the bounds (errOversize) is refused before anything is
// allocated for it, and one off its message's layout is refused too; neither
// changes anything.
func (r *reassembler) add(env *Envelope, pt []byte, vouched bool) ([]byte, bool, error) {
	i, count, n := env.FragIndex, env.FragCount, len(pt)
	if count > maxFragments || i >= count || uint64(count)*uint64(n) > MaxMessageBytes {
		return nil, false, fmt.Errorf("%w: fragment %d/%d of %d bytes", errOversize, i, count, n)
	}
	fb := r.byMember[env.SrcMember]
	if fb == nil || !fb.holds(env) {
		fb = &fragmentBuffer{requestID: env.RequestID, reply: env.Reply, parts: make([][]byte, count)}
	}
	// Every fragment but the last has one length, and the last is no longer.
	last := count - 1
	switch {
	case fb.parts[i] != nil:
		return nil, false, errDuplicateFragment
	case n == 0 || i < last && (fb.chunk != 0 && n != fb.chunk || n < len(fb.parts[last])) ||
		i == last && fb.chunk != 0 && n > fb.chunk:
		return nil, false, fmt.Errorf("smiop: fragment %d/%d of %d bytes in a message of %d-byte fragments",
			i, count, n, fb.chunk)
	}
	r.byMember[env.SrcMember] = fb
	if i < last {
		fb.chunk = n
	}
	fb.parts[i] = pt
	fb.have++
	if !vouched {
		fb.unvouched = true
	}
	if fb.have < count {
		return nil, false, nil
	}
	delete(r.byMember, env.SrcMember)
	return bytes.Join(fb.parts, nil), !fb.unvouched, nil
}

// reset drops all reassembly state (called when the stream moves to a new
// request id).
func (r *reassembler) reset() {
	clear(r.byMember)
}
