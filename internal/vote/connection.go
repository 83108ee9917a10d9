package vote

import (
	"fmt"

	"itdos/internal/quorum"
)

// ConnectionVoter is the per-connection voter element of the ITDOS protocol
// stack (paper §3.6): it collates messages by request identifier, enforces
// the single-outstanding-request discipline, discards messages whose
// identifier does not match the outstanding request (late or Byzantine —
// indistinguishable, so the sender is not penalised), and garbage-collects
// state when moving to the next request so a Byzantine domain cannot make
// it retain information without limit.
type ConnectionVoter struct {
	n, f int
	mode Mode

	currentID uint64
	voter     *Voter

	// Discarded counts messages dropped for a mismatched request id.
	Discarded uint64
}

// NewConnectionVoter returns a voter for a connection to a replication
// domain of n members with failure bound f.
func NewConnectionVoter(n, f int, mode Mode) (*ConnectionVoter, error) {
	if n < 1 || f < 0 || n < quorum.Vote(f) {
		return nil, fmt.Errorf("vote: invalid connection group n=%d f=%d", n, f)
	}
	if mode == 0 {
		mode = EagerFPlus1
	}
	return &ConnectionVoter{n: n, f: f, mode: mode}, nil
}

// Policy is what varies between the votes of one connection. The zero
// value is the paper's vote: f+1 decide.
type Policy struct {
	// Threshold is the class size required to decide; 0 selects f+1.
	Threshold int
	// Reopen restarts collation for the outstanding identifier — the retry
	// after a rekey killed the in-flight vote or a fast path stalled —
	// instead of opening the next one. A reopened vote starts with fresh
	// state.
	Reopen bool
}

// Expect opens collation for a request identifier, garbage-collecting any
// previous vote state (even if the previous vote never completed — that is
// the voter GC the paper requires for progress). Identifiers must be
// strictly increasing; a Reopen names the outstanding identifier and never
// moves it.
func (c *ConnectionVoter) Expect(requestID uint64, cmp Comparator, p Policy) error {
	if c.voter != nil && p.Reopen && requestID != c.currentID {
		return fmt.Errorf("vote: reopen id %d does not match current %d", requestID, c.currentID)
	}
	if c.voter != nil && !p.Reopen && requestID <= c.currentID {
		return fmt.Errorf("vote: request id %d not increasing (current %d)",
			requestID, c.currentID)
	}
	v, err := NewVoter(Config{N: c.n, F: c.f, Comparator: cmp, Mode: c.mode, Threshold: p.Threshold})
	if err != nil {
		return err
	}
	c.currentID = requestID
	c.voter = v
	return nil
}

// Decided reports whether the outstanding vote has completed.
func (c *ConnectionVoter) Decided() bool { return c.voter != nil && c.voter.Decided() }

// Stalled reports whether the outstanding vote can no longer decide.
func (c *ConnectionVoter) Stalled() bool { return c.voter != nil && c.voter.Stalled() }

// CurrentID returns the outstanding request identifier.
func (c *ConnectionVoter) CurrentID() uint64 { return c.currentID }

// Voter exposes the outstanding vote (nil before the first Expect).
func (c *ConnectionVoter) Voter() *Voter { return c.voter }

// Submit routes one member's message. Messages whose requestID does not
// match the outstanding request are discarded and counted, regardless of
// how many copies have been accepted (paper §3.6).
func (c *ConnectionVoter) Submit(requestID uint64, s Submission) (*Decision, error) {
	if c.voter == nil || requestID != c.currentID {
		c.Discarded++
		return nil, nil
	}
	return c.voter.Submit(s)
}

// Faults returns the fault reports for the outstanding vote.
func (c *ConnectionVoter) Faults() []FaultReport {
	if c.voter == nil {
		return nil
	}
	return c.voter.Faults()
}
