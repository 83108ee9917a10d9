package pbft

import (
	"fmt"
	"sort"
	"time"

	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/quorum"
)

// App is the replicated state machine PBFT drives. In ITDOS the App is the
// SRM message queue (paper §3.1); in tests it is whatever deterministic
// machine the test needs.
//
// Execute must be deterministic: given the same sequence of operations,
// every correct replica must produce the same results, the same state
// digest and the same snapshot bytes, whatever path brought it there
// (executed from genesis, or restored from a snapshot and executed on).
type App interface {
	// Execute applies one totally-ordered operation and returns its
	// result. clientID is the authenticated identity of the requester
	// (the request's signature, its tag, or its prepared certificate
	// vouched for it; see Replica.validBatch).
	Execute(clientID string, op []byte) []byte
	// Capture returns the application state as of now. It is called at
	// every checkpoint, so it should cost what changed since the last one,
	// not what the state holds; later Executes must not show through it.
	Capture() Captured
	// SnapshotDigest returns the digest a Capture would report right after
	// Restore(snapshot), without changing anything: received state is
	// checked against a checkpoint certificate before it is restored.
	SnapshotDigest(snapshot []byte) (Digest, error)
	// Restore replaces the application state from a snapshot, or fails and
	// leaves it as it was.
	Restore(snapshot []byte) error
}

// Captured is application state held by a checkpoint: its digest at once,
// its canonical serialisation only if a peer asks for it.
type Captured interface {
	Digest() Digest
	Bytes() []byte
}

// Env is the world a replica talks to. Implementations exist for the
// deterministic simulator and for live transports; both must deliver
// HandleMessage/HandleTimer calls from a single goroutine at a time.
type Env interface {
	// SendReplica transmits data to one peer replica.
	SendReplica(to ReplicaID, data []byte)
	// Broadcast transmits data to every replica except the sender.
	Broadcast(data []byte)
	// SendAddr transmits data to an arbitrary endpoint (client replies).
	SendAddr(addr string, data []byte)
	// SetTimer (re)arms the view-change timer.
	SetTimer(d time.Duration)
	// StopTimer disarms the view-change timer.
	StopTimer()
	// SetBatchTimer (re)arms the batch-accumulation timer, which fires
	// HandleBatchTimer after d. Only a primary arms it; a firing with
	// nothing pending (the batch filled first, or a view change dropped it)
	// is a no-op.
	SetBatchTimer(d time.Duration)
}

// Config parameterises a replica group.
type Config struct {
	// N is the group size; F the failure bound. N must be at least 3F+1.
	N, F int
	// ID is this replica's index.
	ID ReplicaID
	// CheckpointInterval is K: a checkpoint is taken every K executions.
	CheckpointInterval uint64
	// WindowSize is L: the ordering window above the stable checkpoint.
	// Must be at least 2*CheckpointInterval.
	WindowSize uint64
	// ViewTimeout is the base view-change timeout (default 400 ms); it
	// doubles on consecutive failed view changes and resets on progress.
	ViewTimeout time.Duration
	// MaxBatch is the largest request batch one pre-prepare may carry.
	// 0 or 1 is a batch of one: every request fills its batch on arrival
	// and is proposed immediately in its own agreement round (the message
	// schedule of the recorded unbatched experiments). Above 1 the primary
	// orders concurrently-arriving requests as one batch, amortising the
	// quadratic prepare/commit traffic over up to MaxBatch requests per
	// round; a full batch is proposed at once.
	MaxBatch int
	// BatchWait is the window over which a loaded primary accumulates a
	// batch before proposing it (never reached with MaxBatch 1). It should be
	// comparable to the transport latency spread so concurrent arrivals
	// coalesce. An idle, lightly loaded primary does not wait (see
	// assignOrder).
	BatchWait time.Duration
	// TentativeExecution enables Castro–Liskov speculative execution: a
	// replica executes a batch as soon as it is *prepared* (skipping the
	// commit round on the reply latency path), journals the results, and
	// confirms them — without re-executing — when the batch commits. A view
	// change before commit rolls the application back to committed state.
	// Speculation never crosses a checkpoint boundary, so checkpoint
	// snapshots always capture exactly-committed state. Off by default;
	// the off path is byte-identical to the pre-speculation protocol.
	TentativeExecution bool
	// Group names the replica group: the metrics label, and the prefix of
	// every replica's identity and flight ring (Identities).
	Group string
	// Auth authenticates every message sent and checks every one received,
	// as this replica's identity in Group.
	Auth Authenticator
	// Metrics, if non-nil, receives protocol-phase counters, shared across
	// the replicas of Group so they count group-wide events.
	Metrics *obs.Registry
	// Flight, if non-nil, receives typed protocol events on this replica's
	// own ring, named by its identity. Nil — the default — records nothing
	// and leaves behaviour byte-identical.
	Flight *flight.Recorder
}

func (c *Config) fill() error {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 16
	}
	if c.WindowSize == 0 {
		c.WindowSize = 4 * c.CheckpointInterval
	}
	if c.ViewTimeout == 0 {
		c.ViewTimeout = 400 * time.Millisecond
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1
	}
	if c.MaxBatch < 1 || c.MaxBatch > MaxBatchWire {
		return fmt.Errorf("pbft: max batch %d out of range [1,%d]", c.MaxBatch, MaxBatchWire)
	}
	if c.BatchWait == 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.N < quorum.N(c.F) {
		return fmt.Errorf("pbft: n=%d cannot tolerate f=%d (need n >= 3f+1)", c.N, c.F)
	}
	if c.ID < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("pbft: replica id %d out of range [0,%d)", c.ID, c.N)
	}
	if c.WindowSize < 2*c.CheckpointInterval {
		return fmt.Errorf("pbft: window %d must be at least 2*checkpoint interval %d",
			c.WindowSize, c.CheckpointInterval)
	}
	if c.Auth == nil {
		return fmt.Errorf("pbft: config requires an Authenticator")
	}
	return nil
}

type entry struct {
	prePrepare *PrePrepare
	prepares   map[ReplicaID]*Prepare
	commits    map[ReplicaID]*Commit
	sentCommit bool
	executed   bool
	fetchedPP  bool
}

func newEntry() *entry {
	return &entry{
		prepares: make(map[ReplicaID]*Prepare),
		commits:  make(map[ReplicaID]*Commit),
	}
}

// clientRecord caches the last executed request per client for at-most-once
// semantics and reply retransmission. Only deterministic data (sequence and
// result bytes) is stored: the Reply wrapper carries per-replica fields
// (replica id, signature) and is regenerated on demand, so checkpoint state
// digests agree across replicas.
type clientRecord struct {
	seq      uint64
	result   []byte
	hasReply bool
}

// Replica is one PBFT group member. It is an event-driven state machine:
// call HandleMessage and HandleTimer from a single-threaded driver (the
// simulator or a live event loop).
type Replica struct {
	cfg Config
	app App
	env Env

	view     uint64
	seq      uint64 // highest sequence number assigned (primary only)
	lastExec uint64
	lowWater uint64

	log         map[uint64]*entry
	checkpoints map[uint64]map[ReplicaID]*Checkpoint
	stableProof []*Checkpoint
	snapshots   map[uint64]*checkpointState
	clientTable map[string]*clientRecord

	// outstanding tracks forwarded-but-unexecuted request digests for
	// view-change liveness.
	outstanding map[Digest]*Request
	// pending holds the requests the primary has not proposed yet: the
	// batch under construction plus whatever a full ordering window holds
	// back; pendingSet dedupes client retransmissions against it.
	pending         []*Request
	pendingSet      map[Digest]bool
	batchTimerArmed bool
	// lastBatch is the size of the last batch this primary proposed: the
	// load signal of the batching policy (see assignOrder).
	lastBatch int

	// ppIndex maps each unexecuted proposed request digest to the log
	// sequence of the pre-prepare carrying it, replacing the O(window)
	// logSeqs scan assignOrder used for duplicate detection. Maintained on
	// accept/execute and rebuilt on checkpoint GC and view installation;
	// where the same digest could appear at two sequences (only a Byzantine
	// primary can cause this) the lowest live sequence wins, so behaviour
	// never depends on map iteration order.
	ppIndex map[Digest]uint64

	inViewChange bool
	vcTimeout    time.Duration
	viewChanges  map[uint64]map[ReplicaID]*ViewChange
	timerArmed   bool

	// OnExecute, if set, observes every executed operation (used by SRM to
	// deliver ordered messages and by tests to audit ordering).
	OnExecute func(seq uint64, req *Request, result []byte)

	// OnTentativeExecute, if set, observes every speculatively executed
	// operation (TentativeExecution on); OnExecute still fires when the
	// operation's batch commits. OnTentativeRollback fires when the
	// speculative suffix is discarded, with the committed sequence the
	// application was restored to.
	OnTentativeExecute  func(seq uint64, req *Request, result []byte)
	OnTentativeRollback func(lastExec uint64)

	// Speculative-execution state (TentativeExecution on; see tentative.go).
	// specExec is the highest speculated-or-executed sequence (>= lastExec);
	// specBase/specBaseSeq snapshot the application at the speculation
	// session's start; specJournal records per-sequence results until the
	// session drains; specClient tracks per-client at-most-once during
	// speculation.
	specExec    uint64
	specBase    Captured
	specBaseSeq uint64
	specJournal map[uint64]*specEntry
	specClient  map[string]uint64

	// OnRecovered, if set, is called when a recovery started by Recover
	// completes: the replica has restored a proven checkpoint from its
	// peers AND executed a normally committed entry on top of it, i.e.
	// it is contiguous with the live ordering stream again.
	OnRecovered func(seq uint64)

	// fetchSeq is the highest checkpoint sequence state was requested for:
	// a quorum at a higher one asks again, so a lost reply delays catching
	// up by one checkpoint instead of ending it.
	fetchSeq uint64
	// recovering is set by Recover and cleared when the post-recovery
	// state transfer lands.
	recovering bool

	// Protocol-phase counters (nil-safe handles; nil when unobserved).
	mPrePrepares    *obs.Counter
	mPrepares       *obs.Counter
	mCommits        *obs.Counter
	mExecutions     *obs.Counter
	mCheckpoints    *obs.Counter
	mViewChanges    *obs.Counter
	mNewViews       *obs.Counter
	mStateTransfers *obs.Counter
	mBatches        *obs.Counter
	mBatchedReqs    *obs.Counter
	mReadOnlyBypass *obs.Counter
	mRecoveries     *obs.Counter
	mTentative      *obs.Counter
	mTentRollbacks  *obs.Counter
	mProposeIdle    *obs.Counter
	mProposeTimer   *obs.Counter
	mProposeFull    *obs.Counter
	mCkptHashed     *obs.Counter
	mCkptSerialised *obs.Counter
	mRejectDigest   *obs.Counter
	mRejectProof    *obs.Counter
	mRejectDecode   *obs.Counter
	mAdmitSig       *obs.Counter
	mAdmitTag       *obs.Counter
	mAdmitCert      *obs.Counter
	hBatchSize      *obs.Histogram
	gBacklog        *obs.Gauge

	// ids are the identities of the group's replicas, this one's included:
	// who signed what, and the name of this replica's flight ring.
	ids []string
}

// NewReplica constructs a replica over app and env.
func NewReplica(cfg Config, app App, env Env) (*Replica, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:         cfg,
		app:         app,
		env:         env,
		log:         make(map[uint64]*entry),
		checkpoints: make(map[uint64]map[ReplicaID]*Checkpoint),
		snapshots:   make(map[uint64]*checkpointState),
		clientTable: make(map[string]*clientRecord),
		outstanding: make(map[Digest]*Request),
		pendingSet:  make(map[Digest]bool),
		ppIndex:     make(map[Digest]uint64),
		viewChanges: make(map[uint64]map[ReplicaID]*ViewChange),
		vcTimeout:   cfg.ViewTimeout,
		specJournal: make(map[uint64]*specEntry),
		specClient:  make(map[string]uint64),
		ids:         Identities(cfg.Group, cfg.N),
	}
	if id := cfg.Auth.Identity(); id != r.ids[cfg.ID] {
		return nil, fmt.Errorf("pbft: replica %d of %s authenticates as %q, want %q", cfg.ID, cfg.Group, id, r.ids[cfg.ID])
	}
	if m := cfg.Metrics; m != nil {
		label := "group=" + cfg.Group
		r.mPrePrepares = m.Counter("pbft_preprepares_total", label)
		r.mPrepares = m.Counter("pbft_prepares_total", label)
		r.mCommits = m.Counter("pbft_commits_total", label)
		r.mExecutions = m.Counter("pbft_executions_total", label)
		r.mCheckpoints = m.Counter("pbft_checkpoints_total", label)
		r.mViewChanges = m.Counter("pbft_view_changes_total", label)
		r.mNewViews = m.Counter("pbft_new_views_total", label)
		r.mStateTransfers = m.Counter("pbft_state_transfers_total", label)
		r.mBatches = m.Counter("pbft_batches_total", label)
		r.mBatchedReqs = m.Counter("pbft_batched_requests_total", label)
		r.mReadOnlyBypass = m.Counter("pbft_readonly_bypass_total", label)
		r.mRecoveries = m.Counter("pbft_recoveries_total", label)
		r.mTentative = m.Counter("pbft_tentative_execs_total", label)
		r.mTentRollbacks = m.Counter("pbft_tentative_rollbacks_total", label)
		r.mProposeIdle = m.Counter("pbft_proposals_total", label, "trigger=idle")
		r.mProposeTimer = m.Counter("pbft_proposals_total", label, "trigger=timer")
		r.mProposeFull = m.Counter("pbft_proposals_total", label, "trigger=full")
		r.mCkptHashed = m.Counter("pbft_checkpoint_bytes_total", label, "kind=hashed")
		r.mCkptSerialised = m.Counter("pbft_checkpoint_bytes_total", label, "kind=serialised")
		r.mRejectDigest = m.Counter("pbft_state_rejected_total", label, "reason=digest")
		r.mRejectProof = m.Counter("pbft_state_rejected_total", label, "reason=proof")
		r.mRejectDecode = m.Counter("pbft_state_rejected_total", label, "reason=decode")
		r.mAdmitSig = m.Counter("pbft_request_admissions_total", label, "by=signature")
		r.mAdmitTag = m.Counter("pbft_request_admissions_total", label, "by=tag")
		r.mAdmitCert = m.Counter("pbft_request_admissions_total", label, "by=certificate")
		r.hBatchSize = m.Histogram("pbft_batch_size",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}, label)
		r.gBacklog = m.Gauge("pbft_primary_backlog", label)
		r.cfg.Auth = &meteredAuth{
			Authenticator: cfg.Auth,
			signs:         m.Counter("pbft_auth_ops_total", label, "op=sign"),
			verifies:      m.Counter("pbft_auth_ops_total", label, "op=verify"),
			macs:          m.Counter("pbft_auth_ops_total", label, "op=mac"),
		}
	}
	// Seq 0 is the genesis stable checkpoint; its snapshot is the initial
	// state so peers can bootstrap from it.
	r.snapshots[0] = r.captureState()
	return r, nil
}

// record appends a flight-recorder event on this replica's ring (no-op
// without a recorder).
func (r *Replica) record(kind flight.Kind, view, seq uint64, attr string) {
	r.cfg.Flight.Append(r.Identity(), kind, view, seq, 0, attr)
}

// ID returns the replica's index.
func (r *Replica) ID() ReplicaID { return r.cfg.ID }

// Identity returns the identity the replica signs as.
func (r *Replica) Identity() string { return r.ids[r.cfg.ID] }

// NoteReadOnlyBypass records that a read-only invocation was served
// directly, without entering the three-phase ordering protocol
// (Castro–Liskov read-only optimisation). The request never reaches the
// replica, so the upper layer reports the bypass for observability.
func (r *Replica) NoteReadOnlyBypass() { r.mReadOnlyBypass.Inc() }

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// LastExecuted returns the highest executed sequence number.
func (r *Replica) LastExecuted() uint64 { return r.lastExec }

// StableCheckpoint returns the current stable checkpoint sequence.
func (r *Replica) StableCheckpoint() uint64 { return r.lowWater }

// StateDigest returns the digest a checkpoint taken now would certify: equal
// at two replicas exactly when their application state and client tables are.
// For tests and diagnostics; O(client table).
func (r *Replica) StateDigest() Digest {
	return stateDigest(r.app.Capture().Digest(), r.clientTableBytes())
}

// InViewChange reports whether a view change is in progress.
func (r *Replica) InViewChange() bool { return r.inViewChange }

// Primary returns the primary of the given view.
func (r *Replica) Primary(view uint64) ReplicaID {
	return ReplicaID(view % uint64(r.cfg.N))
}

func (r *Replica) isPrimary() bool { return r.Primary(r.view) == r.cfg.ID }

func (r *Replica) quorum() int { return quorum.Prepared(r.cfg.N, r.cfg.F) }

// sign authenticates m as sent by this replica to its group, or to the
// client a reply names.
func (r *Replica) sign(m Message) { signIn(r.cfg.Auth, m, r.ids) }

// broadcast signs m, transmits it to all peers, and returns it for local
// processing.
func (r *Replica) broadcast(m Message) Message {
	r.sign(m)
	r.env.Broadcast(Encode(m))
	return m
}

func (r *Replica) inWindow(seq uint64) bool {
	return seq > r.lowWater && seq <= r.lowWater+r.cfg.WindowSize
}

func (r *Replica) entryAt(seq uint64) *entry {
	en, ok := r.log[seq]
	if !ok {
		en = newEntry()
		r.log[seq] = en
	}
	return en
}

// logSeqs returns the log's sequence numbers in ascending order, for scans
// whose behaviour must not depend on map iteration order.
func (r *Replica) logSeqs() []uint64 {
	seqs := make([]uint64, 0, len(r.log))
	for s := range r.log {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// --- request handling ---

func (r *Replica) onRequest(req *Request) {
	rec := r.clientTable[req.ClientID]
	if rec != nil && req.ClientSeq <= rec.seq {
		// Already executed: retransmit the cached result for the latest
		// request; drop stale ones.
		if req.ClientSeq == rec.seq && rec.hasReply && req.ReplyTo != "" {
			reply := &Reply{
				View: r.view, ClientID: req.ClientID, ClientSeq: rec.seq,
				Replica: r.cfg.ID, Result: rec.result,
			}
			r.sign(reply)
			r.env.SendAddr(req.ReplyTo, Encode(reply))
		}
		return
	}
	if r.inViewChange {
		r.outstanding[req.Digest()] = req
		return
	}
	if r.isPrimary() {
		r.assignOrder(req)
		return
	}
	// Backup: forward to the primary and arm the view-change timer so a
	// faulty primary that suppresses the request is eventually replaced.
	// The request is relayed verbatim — it carries the client's signature,
	// which must not be clobbered.
	d := req.Digest()
	if _, dup := r.outstanding[d]; dup {
		return
	}
	r.outstanding[d] = req
	r.env.SendReplica(r.Primary(r.view), Encode(req))
	r.armTimer()
}

func (r *Replica) assignOrder(req *Request) {
	d := req.Digest()
	// Don't order the same request twice (client retransmissions). Instead,
	// retransmit the existing pre-prepare: a backup may have missed it
	// (e.g. it raced ahead of the NEW-VIEW installing this view). The
	// digest→seq index makes this O(1) instead of the former O(window)
	// sorted log scan.
	if seq, ok := r.ppIndex[d]; ok {
		if en := r.log[seq]; en != nil && en.prePrepare != nil && !en.executed {
			if en.prePrepare.View == r.view {
				r.env.Broadcast(Encode(en.prePrepare))
			}
			return
		}
		delete(r.ppIndex, d)
	}
	if r.pendingSet[d] {
		return
	}
	r.outstanding[d] = req
	r.pending = append(r.pending, req)
	r.pendingSet[d] = true
	r.setBacklogGauge()
	// Batching policy: BatchWait is an accumulation window, worth its
	// latency only while it fills batches. When no window is open,
	// nothing is in flight and the last wait bought nothing (the last
	// batch held at most one request), the group is idle and lightly
	// loaded: propose at once. A batch of two or more keeps the primary
	// on the timer until a window again closes on a lone request. With
	// MaxBatch 1 every arrival fills its batch, so the timer never arms.
	switch {
	case !r.batchTimerArmed && r.seq <= r.lastExec && r.lastBatch <= 1:
		r.flushPending(r.mProposeIdle)
	case len(r.pending) >= r.cfg.MaxBatch:
		r.flushPending(r.mProposeFull)
	case !r.batchTimerArmed:
		r.batchTimerArmed = true
		r.env.SetBatchTimer(r.cfg.BatchWait)
	}
}

// HandleBatchTimer proposes the accumulated batch. Drive it from the same
// single-threaded loop as HandleMessage/HandleTimer.
func (r *Replica) HandleBatchTimer() {
	r.batchTimerArmed = false
	r.flushPending(r.mProposeTimer)
}

// flushPending proposes the accumulated requests as batches of up to
// MaxBatch requests and MaxBatchBytes, as far as the ordering window allows.
// Batches are pipelined: when more is pending than one batch holds, several
// pre-prepares go out back to back and run their three-phase rounds
// concurrently within the window. trigger counts the batches proposed (nil:
// uncounted).
func (r *Replica) flushPending(trigger *obs.Counter) {
	if !r.isPrimary() || r.inViewChange || len(r.pending) == 0 {
		return
	}
	if r.seq < r.lowWater {
		r.seq = r.lowWater
	}
	for len(r.pending) > 0 && r.seq+1 <= r.lowWater+r.cfg.WindowSize {
		// A request fits an empty batch: MaxRequestBytes <= MaxBatchBytes.
		k, size := 1, r.pending[0].Size()
		for ; k < len(r.pending) && k < r.cfg.MaxBatch; k++ {
			if size += r.pending[k].Size(); size > MaxBatchBytes {
				break
			}
		}
		batch := append([]*Request(nil), r.pending[:k]...)
		r.pending = append(r.pending[:0], r.pending[k:]...)
		for _, req := range batch {
			delete(r.pendingSet, req.Digest())
		}
		r.proposeBatch(batch)
		trigger.Inc()
	}
	if len(r.pending) == 0 {
		r.pending = nil
	}
	r.setBacklogGauge()
}

// proposeBatch assigns the next sequence number to the batch and broadcasts
// its pre-prepare. flushPending, the only caller, checks the window.
func (r *Replica) proposeBatch(batch []*Request) {
	r.seq++
	r.lastBatch = len(batch)
	pp := &PrePrepare{
		View: r.view, Seq: r.seq, Digest: BatchDigest(batch),
		Requests: batch, Replica: r.cfg.ID,
	}
	r.broadcast(pp)
	r.mPrePrepares.Inc()
	r.record(flight.KindBatchProposed, pp.View, pp.Seq, fmt.Sprintf("n=%d", len(batch)))
	r.acceptPrePrepare(pp)
	r.armTimer()
}

// setBacklogGauge publishes the primary's unproposed backlog depth.
func (r *Replica) setBacklogGauge() {
	r.gBacklog.Set(float64(len(r.pending)))
}

// indexRequests records each request of an accepted pre-prepare in the
// digest→seq duplicate-detection index. An existing mapping to a live,
// unexecuted lower sequence is kept (deterministic lowest-seq-wins).
func (r *Replica) indexRequests(pp *PrePrepare) {
	for _, req := range pp.Requests {
		d := req.Digest()
		if old, ok := r.ppIndex[d]; ok && old < pp.Seq {
			if en := r.log[old]; en != nil && en.prePrepare != nil && !en.executed {
				continue
			}
		}
		r.ppIndex[d] = pp.Seq
	}
}

// reindexLog rebuilds the duplicate-detection index from the live log,
// after bulk log mutation (checkpoint GC, view installation).
func (r *Replica) reindexLog() {
	r.ppIndex = make(map[Digest]uint64, len(r.ppIndex))
	for seq, en := range r.log {
		if en.prePrepare == nil || en.executed {
			continue
		}
		for _, req := range en.prePrepare.Requests {
			d := req.Digest()
			if old, ok := r.ppIndex[d]; !ok || seq < old {
				r.ppIndex[d] = seq
			}
		}
	}
}

// --- three-phase ordering ---

func (r *Replica) onPrePrepare(pp *PrePrepare) {
	if r.inViewChange || pp.View != r.view || pp.Replica != r.Primary(r.view) {
		return
	}
	if pp.Replica == r.cfg.ID {
		return // primaries don't accept their own relayed pre-prepares
	}
	if !r.inWindow(pp.Seq) {
		return
	}
	if !r.validBatch(pp, false) {
		return
	}
	en := r.entryAt(pp.Seq)
	if en.prePrepare != nil {
		if en.prePrepare.Digest != pp.Digest {
			// Equivocating primary: demand a view change.
			r.startViewChange(r.view + 1)
			return
		}
		// Duplicate pre-prepare: the primary is retransmitting, so peers
		// may have lost our phase messages — re-send them (PBFT message
		// retransmission keeps the protocol live under loss).
		if p, ok := en.prepares[r.cfg.ID]; ok {
			r.env.Broadcast(Encode(p))
		}
		if c, ok := en.commits[r.cfg.ID]; ok {
			r.env.Broadcast(Encode(c))
		}
		return
	}
	r.acceptPrePrepare(pp)
	// Backup: agree to the ordering.
	p := &Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: r.cfg.ID}
	r.broadcast(p)
	r.mPrepares.Inc()
	r.recordPrepare(p)
	r.armTimer()
}

func (r *Replica) acceptPrePrepare(pp *PrePrepare) {
	en := r.entryAt(pp.Seq)
	en.prePrepare = pp
	for _, req := range pp.Requests {
		r.outstanding[req.Digest()] = req
	}
	r.indexRequests(pp)
	r.tryPrepared(pp.Seq)
}

func (r *Replica) recordPrepare(p *Prepare) {
	en := r.entryAt(p.Seq)
	if _, dup := en.prepares[p.Replica]; dup {
		return
	}
	en.prepares[p.Replica] = p
	r.tryPrepared(p.Seq)
}

// agreeing counts the phase messages in msgs that match pp, in its view and
// digest, handing each to keep when keep is non-nil.
func agreeing[M interface{ phase() (uint64, Digest) }](pp *PrePrepare, msgs map[ReplicaID]M, keep func(M)) int {
	count := 0
	for _, m := range msgs {
		if view, digest := m.phase(); view == pp.View && digest == pp.Digest {
			count++
			if keep != nil {
				keep(m)
			}
		}
	}
	return count
}

// isPrepared reports a prepared certificate: a pre-prepare plus 2f matching
// prepares from non-primary replicas. The pre-prepare itself supplies the
// primary's slot in the prepared quorum, so one fewer prepare is needed.
func (r *Replica) isPrepared(en *entry) bool {
	return en.prePrepare != nil && agreeing(en.prePrepare, en.prepares, nil) >= r.quorum()-1
}

func (r *Replica) tryPrepared(seq uint64) {
	en := r.entryAt(seq)
	if !r.isPrepared(en) || en.sentCommit {
		return
	}
	en.sentCommit = true
	c := &Commit{View: r.view, Seq: seq, Digest: en.prePrepare.Digest, Replica: r.cfg.ID}
	r.broadcast(c)
	r.mCommits.Inc()
	r.recordCommit(c)
	r.trySpeculate()
}

func (r *Replica) recordCommit(c *Commit) {
	en := r.entryAt(c.Seq)
	if _, dup := en.commits[c.Replica]; dup {
		return
	}
	en.commits[c.Replica] = c
	// Missing the proposal while f+1 (hence ≥1 correct) replicas commit it:
	// recover the pre-prepare from a committer (PBFT message
	// retransmission).
	if en.prePrepare == nil && !en.fetchedPP && len(en.commits) >= quorum.Vote(r.cfg.F) {
		en.fetchedPP = true
		fe := &FetchEntry{View: c.View, Seq: c.Seq, Replica: r.cfg.ID}
		r.sign(fe)
		data := Encode(fe)
		// Ask the f+1 lowest-numbered committers: picking them by map
		// iteration order would make the message schedule differ run to run
		// under the same seed.
		ids := make([]ReplicaID, 0, len(en.commits))
		for id := range en.commits {
			if id != r.cfg.ID {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if len(ids) > quorum.Vote(r.cfg.F) {
			ids = ids[:quorum.Vote(r.cfg.F)]
		}
		for _, id := range ids {
			r.env.SendReplica(id, data)
		}
	}
	r.tryExecute()
}

func (r *Replica) onFetchEntry(fe *FetchEntry) {
	en, ok := r.log[fe.Seq]
	if !ok || en.prePrepare == nil || en.prePrepare.View != fe.View {
		return
	}
	r.env.SendReplica(fe.Replica, Encode(en.prePrepare))
}

func (r *Replica) isCommitted(en *entry) bool {
	return r.isPrepared(en) && agreeing(en.prePrepare, en.commits, nil) >= r.quorum()
}

// --- execution and checkpoints ---

func (r *Replica) tryExecute() {
	for {
		en, ok := r.log[r.lastExec+1]
		if !ok || en.executed || !r.isCommitted(en) {
			break
		}
		r.executeEntry(r.lastExec+1, en)
	}
	// Committed progress may have released the checkpoint-boundary hold on
	// speculation, or freshly prepared entries may be waiting.
	r.trySpeculate()
}

func (r *Replica) executeEntry(seq uint64, en *entry) {
	pp := en.prePrepare
	// If this batch was executed speculatively with the same digest, its
	// journaled results stand — the application does not run it again.
	// A digest mismatch (the view change re-ordered the window) discards
	// the whole speculative suffix first.
	se := r.confirmSpeculation(seq, pp)
	en.executed = true
	r.lastExec = seq
	r.mExecutions.Inc()
	r.record(flight.KindBatchCommitted, pp.View, seq, fmt.Sprintf("n=%d", len(pp.Requests)))
	if len(pp.Requests) > 0 {
		r.mBatches.Inc()
		r.mBatchedReqs.Add(uint64(len(pp.Requests)))
		r.hBatchSize.Observe(float64(len(pp.Requests)))
	}
	// Execute the batch in proposal order: every replica walks the same
	// slice, so each request becomes its own deterministic App operation.
	for i, req := range pp.Requests {
		d := req.Digest()
		rec := r.clientTable[req.ClientID]
		if rec == nil || req.ClientSeq > rec.seq {
			var result []byte
			if se != nil {
				// Speculation and commit dedupe against the same
				// deterministic client-table evolution, so a request the
				// commit path would execute is exactly one the speculation
				// executed and journaled.
				result = se.results[i].result
			} else {
				result = r.app.Execute(req.ClientID, req.Op)
			}
			r.clientTable[req.ClientID] = &clientRecord{
				seq: req.ClientSeq, result: result, hasReply: true,
			}
			if req.ReplyTo != "" {
				reply := &Reply{
					View: r.view, ClientID: req.ClientID, ClientSeq: req.ClientSeq,
					Replica: r.cfg.ID, Result: result,
				}
				r.sign(reply)
				r.env.SendAddr(req.ReplyTo, Encode(reply))
			}
			if r.OnExecute != nil {
				r.OnExecute(seq, req, result)
			}
		}
		delete(r.outstanding, d)
		delete(r.ppIndex, d)
	}
	// Progress was made: reset view-change pressure.
	r.vcTimeout = r.cfg.ViewTimeout
	r.pruneOutstanding()
	if len(r.outstanding) > 0 {
		r.armTimerAlways()
	}
	if r.specExec < r.lastExec {
		r.specExec = r.lastExec
	}
	if r.specExec == r.lastExec {
		// The speculative suffix is fully confirmed: nothing remains to
		// roll back, so the session's base snapshot and journal can go.
		r.clearSpecSession()
	}
	if seq%r.cfg.CheckpointInterval == 0 {
		// Speculation never crosses a checkpoint boundary, so the
		// application state here is exactly the committed state at seq.
		r.takeCheckpoint(seq)
	}
	if r.recovering {
		// Executing a normally committed entry proves the replica is
		// contiguous with the live ordering stream again — the real end
		// of recovery (a restored checkpoint alone can still be behind
		// requests ordered after it was taken).
		r.recovering = false
		r.record(flight.KindRecoveryComplete, r.view, seq, "")
		if r.OnRecovered != nil {
			r.OnRecovered(seq)
		}
	}
}

// pruneOutstanding drops forwarded requests that have since executed —
// locally or, after state transfer, remotely (visible in the client
// table). Without this a replica whose requests were satisfied by state
// transfer would keep its view-change timer armed forever.
func (r *Replica) pruneOutstanding() {
	for d, req := range r.outstanding {
		rec := r.clientTable[req.ClientID]
		if rec != nil && req.ClientSeq <= rec.seq {
			delete(r.outstanding, d)
		}
	}
	if len(r.outstanding) == 0 {
		r.disarmTimer()
	}
}

// --- timers ---

func (r *Replica) armTimer() {
	if r.timerArmed {
		return
	}
	r.timerArmed = true
	r.env.SetTimer(r.vcTimeout)
}

// armTimerAlways re-arms even if already armed (restarts countdown after
// progress).
func (r *Replica) armTimerAlways() {
	r.timerArmed = true
	r.env.SetTimer(r.vcTimeout)
}

func (r *Replica) disarmTimer() {
	if !r.timerArmed {
		return
	}
	r.timerArmed = false
	r.env.StopTimer()
}

// maxViewTimeout caps exponential view-change backoff so the timeout can
// neither overflow nor grow unboundedly during a long outage.
const maxViewTimeout = 30 * time.Second

// HandleTimer processes a view-change timer expiry.
func (r *Replica) HandleTimer() {
	r.timerArmed = false
	if r.recovering {
		// A recovering replica cannot tell a faulty primary from its own
		// missing history (requests ordered between its last restored
		// checkpoint and the live sequence are gone from its log), so a
		// timeout here must not disturb the view — the rotation
		// discipline keeps 2f+1 non-recovering replicas whose timers
		// guard liveness. Solicit state again and keep waiting: peers
		// answer once their stable checkpoint passes our execution point.
		r.broadcast(&FetchState{Seq: r.lastExec + 1, Replica: r.cfg.ID})
		r.armTimerAlways()
		return
	}
	r.vcTimeout *= 2
	if r.vcTimeout > maxViewTimeout {
		r.vcTimeout = maxViewTimeout
	}
	r.startViewChange(r.view + 1)
}
