// Package vote implements the ITDOS voting virtual machine (paper §3.6).
//
// Voting happens in middleware on *unmarshalled* CORBA values, not raw
// bytes, because heterogeneous replicas legitimately produce different byte
// streams for the same values (different endianness, padding, float
// formatting). The voter therefore compares values with a pluggable
// Comparator, which may be exact or inexact (ε-tolerant for floating
// point, after Parhami's exact/inexact/approval taxonomy [31]).
//
// Decision rule (paper §3.6): the voter needs f+1 identical messages and
// never waits for all 3f+1 — waiting for the slowest replica would let a
// deliberately slow Byzantine process stall the system. With at most f
// faulty members, any class reaching f+1 supporters holds the correct
// value.
//
// Inexact equivalence is deliberately non-transitive (a≈b and b≈c do not
// imply a≈c); the voter clusters each arriving value with the first class
// whose representative it matches, exactly the behaviour the paper
// describes.
package vote

import (
	"fmt"
	"math"
	"slices"

	"itdos/internal/cdr"
	"itdos/internal/quorum"
)

// Comparator decides whether two unmarshalled values are equivalent.
type Comparator interface {
	Equal(a, b cdr.Value) (bool, error)
	// Describe names the comparison semantics for diagnostics.
	Describe() string
}

// Exact compares values structurally with exact float equality.
type Exact struct {
	// TC is the TypeCode the compared values conform to.
	TC *cdr.TypeCode
}

var _ Comparator = Exact{}

// Equal implements Comparator.
func (c Exact) Equal(a, b cdr.Value) (bool, error) {
	return cdr.EqualValues(c.TC, a, b, cdr.ExactFloatEq)
}

// Describe implements Comparator.
func (c Exact) Describe() string { return "exact" }

// Inexact compares values structurally with |a-b| <= Epsilon at float
// leaves. Equivalence under Inexact is not transitive.
type Inexact struct {
	TC      *cdr.TypeCode
	Epsilon float64
}

var _ Comparator = Inexact{}

// Equal implements Comparator.
func (c Inexact) Equal(a, b cdr.Value) (bool, error) {
	eps := c.Epsilon
	return cdr.EqualValues(c.TC, a, b, func(x, y float64) bool {
		if x == y {
			return true
		}
		return math.Abs(x-y) <= eps
	})
}

// Describe implements Comparator.
func (c Inexact) Describe() string { return fmt.Sprintf("inexact(ε=%g)", c.Epsilon) }

// ByteExact compares raw message bytes — the byte-by-byte voting of
// Immune/Rampart that the paper shows fails under heterogeneity. It exists
// for experiment C2.
type ByteExact struct{}

var _ Comparator = ByteExact{}

// Equal implements Comparator. Values must be []byte.
func (ByteExact) Equal(a, b cdr.Value) (bool, error) {
	x, okx := a.([]byte)
	y, oky := b.([]byte)
	if !okx || !oky {
		return false, fmt.Errorf("vote: byte comparator needs []byte, got %T, %T", a, b)
	}
	if len(x) != len(y) {
		return false, nil
	}
	for i := range x {
		if x[i] != y[i] {
			return false, nil
		}
	}
	return true, nil
}

// Describe implements Comparator.
func (ByteExact) Describe() string { return "byte-by-byte" }

// Mode selects when the voter attempts a decision (experiment C4 compares
// these policies; the paper's choice is EagerFPlus1).
type Mode int

const (
	// EagerFPlus1 decides as soon as any class reaches f+1 supporters —
	// the paper's policy.
	EagerFPlus1 Mode = iota + 1
	// AfterQuorum decides only once 2f+1 total messages have arrived.
	AfterQuorum
	// WaitAll decides only once all n messages have arrived (vulnerable to
	// slow/unresponsive replicas; for comparison only).
	WaitAll
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case EagerFPlus1:
		return "eager-f+1"
	case AfterQuorum:
		return "after-2f+1"
	case WaitAll:
		return "wait-all"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterises a Voter.
type Config struct {
	// N is the source replication domain size; F its failure bound.
	N, F int
	// Comparator decides value equivalence.
	Comparator Comparator
	// Mode selects the decision policy; default EagerFPlus1.
	Mode Mode
	// Threshold is the class size required to decide; 0 selects the
	// paper's F+1 rule. The read-only fast path votes with threshold 2F+1:
	// matching an unordered read on 2f+1 replicas guarantees the value
	// intersects every ordered quorum (Castro–Liskov §read-only).
	Threshold int
}

// Submission is one member's message content for the vote.
type Submission struct {
	// Member is the source replication domain element index.
	Member int
	// Value is the unmarshalled message value.
	Value cdr.Value
	// Raw is the original message bytes (retained as evidence/proof for
	// the Group Manager, paper §3.6).
	Raw []byte
}

// Decision is a completed vote.
type Decision struct {
	// Value is the agreed value; Raw its representative raw message.
	Value cdr.Value
	Raw   []byte
	// Supporters are the member indices whose values matched.
	Supporters []int
	// SupporterRaws are the raw messages of the winning class, aligned
	// with Supporters. Together with a conflicting message they form the
	// "set of signed messages through which the faulty value was detected"
	// that a change_request presents to the Group Manager (paper §3.6).
	SupporterRaws [][]byte
	// Received is how many submissions had arrived when the vote decided.
	Received int
}

// FaultReport names a member whose submission conflicted with the decided
// value, with both raw messages as evidence.
type FaultReport struct {
	Member      int
	Evidence    []byte // the member's conflicting raw message
	DecidedRaw  []byte // representative raw message of the decided class
	Description string
}

// class is one set of matching copies: members index them in Voter.subs,
// in arrival order, the first being the class's representative.
type class struct {
	members []int
}

func (c *class) rep() int { return c.members[0] }

// Voter runs one vote over submissions from a replication domain. It is
// not safe for concurrent use; the ITDOS stack drives it from the
// single-threaded delivery path, which is what makes voters deterministic
// across replicas (paper §3.6).
type Voter struct {
	cfg Config
	// subs holds every accepted submission in arrival order: the one record
	// of who has been seen, and what a re-vote replays.
	subs     []Submission
	classes  []*class
	decision *Decision
	decided  *class
	faults   []FaultReport
}

// NewVoter constructs a voter. It returns an error for configurations that
// can never decide.
func NewVoter(cfg Config) (*Voter, error) {
	if cfg.Mode == 0 {
		cfg.Mode = EagerFPlus1
	}
	if cfg.Comparator == nil {
		return nil, fmt.Errorf("vote: config requires a Comparator")
	}
	if cfg.N < 1 || cfg.F < 0 {
		return nil, fmt.Errorf("vote: invalid group n=%d f=%d", cfg.N, cfg.F)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = quorum.Vote(cfg.F)
	}
	if cfg.Threshold < quorum.Vote(cfg.F) || cfg.N < cfg.Threshold {
		return nil, fmt.Errorf("vote: n=%d can never reach threshold %d (f=%d)",
			cfg.N, cfg.Threshold, cfg.F)
	}
	return &Voter{cfg: cfg, subs: make([]Submission, 0, cfg.N)}, nil
}

// Revote restarts the vote under cfg over the copies accepted so far,
// replayed in arrival order. Widening an adaptive vote's tolerance re-votes
// this way, so copies already verified count again without being re-sent.
func (v *Voter) Revote(cfg Config) error {
	nv, err := NewVoter(cfg)
	if err != nil {
		return err
	}
	old := *v
	*v = *nv
	for i := range old.subs {
		if _, err := v.Submit(old.subs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Received returns how many distinct members have submitted.
func (v *Voter) Received() int { return len(v.subs) }

// Decided reports whether the vote has completed.
func (v *Voter) Decided() bool { return v.decision != nil }

// Decision returns the decision, or nil if the vote is still open.
func (v *Voter) Decision() *Decision { return v.decision }

// Faults returns fault reports accumulated so far (conflicting submissions
// observed after a decision). The slice is shared; callers must not modify.
func (v *Voter) Faults() []FaultReport { return v.faults }

func (v *Voter) seen(member int) bool {
	for i := range v.subs {
		if v.subs[i].Member == member {
			return true
		}
	}
	return false
}

// Submit records one member's message. It returns the decision when this
// submission completes the vote, or nil. Duplicate submissions from the
// same member are ignored (the transport delivers each copy once; a
// Byzantine double-send must not double-count).
func (v *Voter) Submit(s Submission) (*Decision, error) {
	if s.Member < 0 || s.Member >= v.cfg.N {
		return nil, fmt.Errorf("vote: member %d out of range [0,%d)", s.Member, v.cfg.N)
	}
	if v.seen(s.Member) {
		return nil, nil
	}
	idx := len(v.subs)
	v.subs = append(v.subs, s)

	// Cluster with the first matching class (first-match, non-transitive).
	var home *class
	for _, c := range v.classes {
		eq, err := v.cfg.Comparator.Equal(v.subs[c.rep()].Value, s.Value)
		if err != nil {
			return nil, fmt.Errorf("vote: compare member %d: %w", s.Member, err)
		}
		if eq {
			home = c
			break
		}
	}
	if home == nil {
		home = &class{}
		v.classes = append(v.classes, home)
	}
	home.members = append(home.members, idx)

	if v.decision != nil {
		// Late message after the decision: if it conflicts with the decided
		// value, record a fault report (detection, paper §3.6).
		if home != v.decided {
			v.reportFault(idx)
		}
		return nil, nil
	}
	v.tryDecide()
	return v.decision, nil
}

func (v *Voter) tryDecide() {
	switch v.cfg.Mode {
	case EagerFPlus1:
		// Decide the moment any class has f+1 supporters.
	case AfterQuorum:
		if len(v.subs) < quorum.ReadOnly(v.cfg.F) {
			return
		}
	case WaitAll:
		if len(v.subs) < v.cfg.N {
			return
		}
	}
	for _, c := range v.classes {
		if len(c.members) >= v.cfg.Threshold {
			v.decide(c)
			return
		}
	}
}

func (v *Voter) decide(c *class) {
	byMember := slices.Clone(c.members)
	slices.SortFunc(byMember, func(a, b int) int { return v.subs[a].Member - v.subs[b].Member })
	d := &Decision{
		Value:         v.subs[c.rep()].Value,
		Raw:           v.subs[c.rep()].Raw,
		Supporters:    make([]int, len(byMember)),
		SupporterRaws: make([][]byte, len(byMember)),
		Received:      len(v.subs),
	}
	for i, j := range byMember {
		d.Supporters[i], d.SupporterRaws[i] = v.subs[j].Member, v.subs[j].Raw
	}
	v.decided, v.decision = c, d
	// Everyone already clustered outside the decided class conflicts.
	for _, other := range v.classes {
		if other == c {
			continue
		}
		for _, j := range other.members {
			v.reportFault(j)
		}
	}
}

// reportFault files a conflicting copy.
func (v *Voter) reportFault(idx int) {
	s := &v.subs[idx]
	v.faults = append(v.faults, FaultReport{
		Member:      s.Member,
		Evidence:    s.Raw,
		DecidedRaw:  v.decision.Raw,
		Description: fmt.Sprintf("member %d value conflicts with %s-voted decision", s.Member, v.cfg.Comparator.Describe()),
	})
}

// Stalled reports whether the vote can no longer decide even if all
// remaining members submit — possible when values scatter across classes
// (e.g. exact voting over heterogeneous floats) or a 2f+1 threshold is out
// of reach. Callers use this to fall back or to widen tolerance (adaptive
// voting).
func (v *Voter) Stalled() bool {
	if v.decision != nil {
		return false
	}
	remaining := v.cfg.N - len(v.subs)
	for _, c := range v.classes {
		if len(c.members)+remaining >= v.cfg.Threshold {
			return false
		}
	}
	// A member yet to answer could still open a fresh class with the
	// remaining members' support.
	return remaining < v.cfg.Threshold
}

// Approval implements Parhami's third voting category [31]: instead of
// comparing replica outputs with each other, each output is tested against
// an application-supplied acceptance predicate, and the voter decides on
// the first approved value once f+1 members produced *approved* outputs.
// Approval voting suits outputs with many acceptable answers (e.g. any
// solution that satisfies a checker) where equality comparison would
// scatter correct replies into singleton classes.
type Approval struct {
	// Accept reports whether a value is acceptable.
	Accept func(v cdr.Value) bool
}

var _ Comparator = Approval{}

// Equal implements Comparator: two values are equivalent iff both are
// approved (the class of acceptable answers) or both rejected.
func (c Approval) Equal(a, b cdr.Value) (bool, error) {
	if c.Accept == nil {
		return false, fmt.Errorf("vote: approval comparator needs an Accept predicate")
	}
	return c.Accept(a) == c.Accept(b), nil
}

// Describe implements Comparator.
func (Approval) Describe() string { return "approval" }
