package smiop

// ReplyPolicy is everything that varies between the reply votes a client
// arms (Stream.Expect): how many matching copies decide, and what a stalled
// or timed-out vote re-requests. Every member always sends its full reply.
// The zero value is the paper's §3.6 vote — f+1 matching copies decide, and
// a stall has nothing to fall back to. Every
// fallback lands on that zero policy, so a call falls back at most once.
type ReplyPolicy struct {
	Quorum   ReplyQuorum
	Fallback ReplyFallback
}

// ReplyQuorum is the number of matching copies that decides a reply vote.
type ReplyQuorum uint8

const (
	// QuorumVote is f+1: at least one correct member vouches for the value.
	QuorumVote ReplyQuorum = iota
	// QuorumReadOnly is 2f+1: the copies intersect every ordered quorum, so
	// they may be unordered reads or tentative (prepared, uncommitted)
	// results (Castro–Liskov read-only and tentative-execution rules).
	QuorumReadOnly
)

// ReplyFallback is what the caller re-requests, under the plain policy,
// when a vote stalls or times out.
type ReplyFallback uint8

const (
	// FallbackNone: keep waiting.
	FallbackNone ReplyFallback = iota
	// FallbackSameID re-sends the request under its own id: elements that
	// executed it answer from their reply caches, so it still executes at
	// most once.
	FallbackSameID
	// FallbackFreshID re-issues the request under a new id, so stale
	// fast-path replies are discarded by id mismatch. Only for requests
	// whose re-execution is harmless (read-only).
	FallbackFreshID
)

// The fast-path policies. Each is an optimisation over the zero policy and
// falls back to it; none changes what is decided.
var (
	// ReadOnlyReply votes 2f+1 unordered replies to a direct read.
	ReadOnlyReply = ReplyPolicy{Quorum: QuorumReadOnly, Fallback: FallbackFreshID}
	// TentativeReply votes 2f+1 tentative replies to an ordered request,
	// one commit round early.
	TentativeReply = ReplyPolicy{Quorum: QuorumReadOnly, Fallback: FallbackSameID}
)
