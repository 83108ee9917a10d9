// Package flight implements the black-box flight recorder: a per-replica,
// fixed-capacity ring buffer of typed, virtual-time-stamped protocol
// events, appended nil-safely from the stack's existing instrumentation
// sites (PBFT ordering, SMIOP voting, SRM delivery, Group Manager keying,
// the intrusion-tolerance controller).
//
// The recorder answers the forensic question the metrics registry cannot:
// not "how many view changes happened" but "what did replica calc/r2 do,
// in causal order, before it was expelled". When the controller crosses a
// suspicion or expulsion threshold it snapshots every ring into a
// schema-pinned dump (see SchemaVersion), so each graduated response ships
// with the evidence timeline that justified it.
//
// Like the rest of internal/obs, the recorder runs on the simulator's
// virtual clock, keeps no wall-clock state, and is not internally locked
// (single-threaded driver discipline). All exported methods are nil-safe:
// a nil *Recorder no-ops at the cost of one branch per call site, so the
// default deployment (no recorder) stays byte-identical to recordings made
// before the recorder existed.
package flight

import (
	"time"

	"itdos/internal/obs"
)

// Kind is the event taxonomy. The set mirrors the protocol decisions the
// paper's intrusion-tolerance story turns on; renderers and dumps use the
// stable String form, so extend the list — never reorder it.
type Kind uint8

const (
	// KindViewChange: a replica gave up on the primary and broadcast a
	// VIEW-CHANGE (pbft).
	KindViewChange Kind = iota
	// KindNewView: a new primary installed its view (pbft).
	KindNewView
	// KindBatchProposed: the primary pre-prepared a request batch (pbft).
	KindBatchProposed
	// KindBatchCommitted: a replica executed a committed entry (pbft).
	KindBatchCommitted
	// KindVoteDecided: the reply voter reached a decision (smiop).
	KindVoteDecided
	// KindFaultReported: a voter attributed a value fault to a member
	// (smiop reporting pipeline or itc observation).
	KindFaultReported
	// KindProofRejected: the Group Manager rejected a change_request's
	// proof (groupmgr), or the controller observed the rejection (itc).
	KindProofRejected
	// KindFallback: a read-only or tentative fast path fell back to the
	// ordered, plain vote (smiop).
	KindFallback
	// KindShareTamper: a corrupt DPRF key share was attributed to a Group
	// Manager element (itc observation).
	KindShareTamper
	// KindRekey: a domain's communication key epoch advanced (groupmgr),
	// or the controller scheduled a feedback rekey (itc).
	KindRekey
	// KindExpulsionFiled: an accusation with transferable proof was filed
	// (itc) or applied by the Group Manager (groupmgr).
	KindExpulsionFiled
	// KindRecoveryStart: a replica began proactive recovery from clean
	// state (pbft Recover, itc rotation).
	KindRecoveryStart
	// KindRecoveryComplete: a recovering replica's state transfer landed
	// and it resumed normal execution (pbft, itc).
	KindRecoveryComplete
	// KindDesync: an SRM element fell out of the queue window and
	// resynchronised by state transfer (srm).
	KindDesync
	// KindTentativeExec: a replica speculatively executed a prepared but
	// not yet committed batch (pbft tentative execution).
	KindTentativeExec
	// KindTentativeRollback: a replica discarded its speculative suffix
	// and restored committed state (pbft tentative execution).
	KindTentativeRollback
)

var kindNames = [...]string{
	KindViewChange:        "view-change",
	KindNewView:           "new-view",
	KindBatchProposed:     "batch-proposed",
	KindBatchCommitted:    "batch-committed",
	KindVoteDecided:       "vote-decided",
	KindFaultReported:     "fault-reported",
	KindProofRejected:     "proof-rejected",
	KindFallback:          "fallback",
	KindShareTamper:       "share-tamper",
	KindRekey:             "rekey",
	KindExpulsionFiled:    "expulsion-filed",
	KindRecoveryStart:     "recovery-start",
	KindRecoveryComplete:  "recovery-complete",
	KindDesync:            "desync",
	KindTentativeExec:     "tentative-exec",
	KindTentativeRollback: "tentative-rollback",
}

// String returns the stable dump/render name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded protocol event. View/Seq carry the PBFT ordering
// coordinates where the event has them (0 otherwise); Span is the
// invocation correlation id — the SMIOP request id of the invocation the
// event belongs to, when known — so a renderer can stitch one request's
// path across replicas.
type Event struct {
	VT   time.Duration // virtual time of the event
	Kind Kind
	View uint64
	Seq  uint64
	Span uint64 // invocation/span correlation id (SMIOP request id)
	Attr string // free-form "key=value" detail (member, batch size, ...)
}

// ring is one replica's fixed-capacity event buffer. When full, the
// oldest event is overwritten and Dropped counts the loss, so a dump is
// explicit about truncation instead of silently pretending completeness.
type ring struct {
	events  []Event
	start   int
	n       int
	dropped uint64
}

func (rg *ring) append(e Event) {
	if rg.n < cap(rg.events) {
		rg.events = rg.events[:rg.n+1]
		rg.events[(rg.start+rg.n)%cap(rg.events)] = e
		rg.n++
		return
	}
	rg.events[rg.start] = e
	rg.start = (rg.start + 1) % cap(rg.events)
	rg.dropped++
}

// ordered returns the ring's events oldest-first.
func (rg *ring) ordered() []Event {
	out := make([]Event, 0, rg.n)
	for i := 0; i < rg.n; i++ {
		out = append(out, rg.events[(rg.start+i)%cap(rg.events)])
	}
	return out
}

// DefaultCapacity is the per-replica ring size used when NewRecorder is
// given a non-positive capacity.
const DefaultCapacity = 256

// Recorder is the deployment-wide flight recorder: one event ring per
// replica identity, all stamped from a shared virtual clock. A nil
// *Recorder is the disabled recorder; every method no-ops on it.
type Recorder struct {
	clock obs.Clock
	cap   int
	rings map[string]*ring
	order []string // first-append identity order (Snapshot sorts)
}

// NewRecorder builds a recorder over clock with the given per-replica
// ring capacity (DefaultCapacity if non-positive). A nil clock yields a
// nil recorder, i.e. recording disabled.
func NewRecorder(clock obs.Clock, capacity int) *Recorder {
	if clock == nil {
		return nil
	}
	r := New(capacity)
	r.clock = clock
	return r
}

// New builds a recorder with no clock bound yet. Deployments that own
// the virtual clock only after construction (replica.NewSystem builds
// the network from a seed) pass an unbound recorder in and the system
// calls Bind before traffic runs; unbound appends stamp vt=0.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity, rings: make(map[string]*ring)}
}

// Bind attaches the virtual clock events are stamped from. Nil-safe and
// idempotent: the first non-nil clock wins, so a recorder pre-bound by
// NewRecorder keeps its clock.
func (r *Recorder) Bind(clock obs.Clock) {
	if r == nil || r.clock != nil {
		return
	}
	r.clock = clock
}

// Append records one event on identity's ring at the current virtual
// time. Nil-safe: a nil recorder is a no-op costing one branch — call
// sites never need their own guard.
func (r *Recorder) Append(identity string, kind Kind, view, seq, span uint64, attr string) {
	if r == nil {
		return
	}
	rg, ok := r.rings[identity]
	if !ok {
		rg = &ring{events: make([]Event, 0, r.cap)}
		r.rings[identity] = rg
		r.order = append(r.order, identity)
	}
	var vt time.Duration
	if r.clock != nil {
		vt = r.clock.Now()
	}
	rg.append(Event{
		VT: vt, Kind: kind,
		View: view, Seq: seq, Span: span, Attr: attr,
	})
}

// Events returns identity's recorded events oldest-first (nil if the
// recorder is nil or the identity never appended).
func (r *Recorder) Events(identity string) []Event {
	if r == nil {
		return nil
	}
	rg, ok := r.rings[identity]
	if !ok {
		return nil
	}
	return rg.ordered()
}

// Dropped returns how many of identity's events were overwritten by ring
// wrap-around (0 on a nil recorder).
func (r *Recorder) Dropped(identity string) uint64 {
	if r == nil {
		return 0
	}
	rg, ok := r.rings[identity]
	if !ok {
		return 0
	}
	return rg.dropped
}
