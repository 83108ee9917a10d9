package vote

import (
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/obs"
)

// Adaptive implements the adaptive voting the paper lists as future work
// (§4, citing Parameswaran/Blough/Bakken's precision-vs-fault-tolerance
// investigation [32]): it starts at the tightest precision and widens the
// comparison tolerance only when the vote stalls — when no ε-class can
// reach f+1 even if every remaining member answers.
//
// Widening trades precision for fault tolerance: a decision at a wide ε is
// more likely to mask a subtly wrong value, so Adaptive records the ε that
// finally decided.
type Adaptive struct {
	tc *cdr.TypeCode
	// epsilons is the widening schedule, strictly increasing.
	epsilons []float64
	level    int
	voter    *Voter

	// Metrics, if set before submissions arrive, records the ε that finally
	// decided each vote in a histogram bucketed by the widening schedule —
	// the precision-vs-fault-tolerance audit trail the paper's §4 asks for.
	Metrics *obs.Registry
}

// NewAdaptive builds an adaptive voter over values of type tc with the
// given widening schedule.
func NewAdaptive(n, f int, mode Mode, tc *cdr.TypeCode, epsilons []float64) (*Adaptive, error) {
	if len(epsilons) == 0 {
		return nil, fmt.Errorf("vote: adaptive voter needs a widening schedule")
	}
	for i := 1; i < len(epsilons); i++ {
		if epsilons[i] <= epsilons[i-1] {
			return nil, fmt.Errorf("vote: widening schedule must increase: %v", epsilons)
		}
	}
	v, err := NewVoter(Config{N: n, F: f, Mode: mode, Comparator: Inexact{TC: tc, Epsilon: epsilons[0]}})
	if err != nil {
		return nil, err
	}
	return &Adaptive{tc: tc, epsilons: epsilons, voter: v}, nil
}

// Epsilon returns the tolerance currently in force.
func (a *Adaptive) Epsilon() float64 { return a.epsilons[a.level] }

// Decision returns the decision, or nil while the vote is open.
func (a *Adaptive) Decision() *Decision { return a.voter.Decision() }

// Submit records one member's value, escalating the tolerance when the
// vote stalls at the current precision. Once decided, further submissions
// only feed fault detection.
func (a *Adaptive) Submit(s Submission) (*Decision, error) {
	d, err := a.voter.Submit(s)
	// Escalate while stalled (never once decided) and a wider tolerance
	// remains.
	for err == nil && d == nil && a.voter.Stalled() && a.level+1 < len(a.epsilons) {
		a.level++
		cfg := a.voter.cfg
		cfg.Comparator = Inexact{TC: a.tc, Epsilon: a.epsilons[a.level]}
		err = a.voter.Revote(cfg)
		d = a.voter.Decision()
	}
	if err != nil {
		return nil, err
	}
	if d != nil {
		a.recordDecision()
	}
	return d, nil
}

// recordDecision observes the deciding ε in the schedule-bucketed
// histogram (no-op without Metrics).
func (a *Adaptive) recordDecision() {
	a.Metrics.Histogram("vote_adaptive_epsilon", a.epsilons).Observe(a.epsilons[a.level])
}

// Faults returns fault reports at the current precision level.
func (a *Adaptive) Faults() []FaultReport { return a.voter.Faults() }
