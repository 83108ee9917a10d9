package smiop

import "fmt"

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

// DefaultFragmentSize is the chunk size used when a caller passes 0.
const DefaultFragmentSize = 16 << 10

// maxFragments bounds reassembly so a Byzantine sender cannot claim an
// enormous fragment count.
const maxFragments = 1 << 14

// fragmentBuffer reassembles one sender's fragmented message for the
// current request id.
type fragmentBuffer struct {
	requestID uint64
	reply     bool
	count     uint32
	parts     [][]byte
	have      uint32
	// unvouched is set by the first fragment whose sender the ordering
	// layer did not authenticate as the identity the message claims.
	unvouched bool
}

// reassembler collects fragments per sending member. State for a member is
// replaced whenever a fragment for a different (requestID, reply) context
// arrives, and dropped entirely on Reset — the same garbage-collection
// discipline as the voter (paper §3.6).
type reassembler struct {
	byMember map[uint32]*fragmentBuffer
}

func newReassembler() *reassembler {
	return &reassembler{byMember: make(map[uint32]*fragmentBuffer)}
}

// add stores one opened fragment and returns the reassembled plaintext
// when it completes the message, or nil. vouched says whether this
// fragment's ordered sender is the identity env claims; the whole message is
// reported vouched only if every one of its fragments was.
func (r *reassembler) add(env *Envelope, plaintext []byte, vouched bool) ([]byte, bool, error) {
	if env.FragCount < 2 {
		return plaintext, vouched, nil
	}
	if env.FragCount > maxFragments || env.FragIndex >= env.FragCount {
		return nil, false, fmt.Errorf("smiop: invalid fragment %d/%d", env.FragIndex, env.FragCount)
	}
	buf := r.byMember[env.SrcMember]
	if buf == nil || buf.requestID != env.RequestID || buf.reply != env.Reply ||
		buf.count != env.FragCount {
		buf = &fragmentBuffer{
			requestID: env.RequestID,
			reply:     env.Reply,
			count:     env.FragCount,
			parts:     make([][]byte, env.FragCount),
		}
		r.byMember[env.SrcMember] = buf
	}
	if buf.parts[env.FragIndex] != nil {
		// Duplicate fragment: the cipher layer already rejects replays, so
		// this is a sender bug or attack; ignore.
		return nil, false, nil
	}
	buf.parts[env.FragIndex] = plaintext
	buf.have++
	if !vouched {
		buf.unvouched = true
	}
	if buf.have < buf.count {
		return nil, false, nil
	}
	delete(r.byMember, env.SrcMember)
	total := 0
	for _, p := range buf.parts {
		total += len(p)
	}
	whole := make([]byte, 0, total)
	for _, p := range buf.parts {
		whole = append(whole, p...)
	}
	return whole, !buf.unvouched, nil
}

// reset drops all reassembly state (called when the stream moves to a new
// request id).
func (r *reassembler) reset() {
	r.byMember = make(map[uint32]*fragmentBuffer)
}
