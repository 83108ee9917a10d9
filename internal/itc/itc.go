// Package itc implements the intrusion-tolerance controller: the feedback
// loop that turns the stack's detection signals into graduated responses.
//
// The paper's intrusion-tolerance story ends at detection — voting detects
// value faults and the Group Manager expels by rekeying (§3.5–3.6) — but
// detection alone leaves response policy to the operator. Following the
// two-level feedback-control shape of Hammar & Stadler (DSN 2024) and the
// proactive-recovery hygiene of SecureSMART, the controller subscribes to
// the existing signals (voter FaultReports, SMIOP rejected-proof and
// share-tamper attributions) and maintains a
// per-replica suspicion score with exponential time decay on the virtual
// clock. Crossing thresholds drives three responses through the Group
// Manager, in increasing severity:
//
//  1. Feedback-scheduled rekey: every domain's key epoch shortens as the
//     domain's aggregate suspicion rises (interval = base/(1+S), floored),
//     so a suspected-but-unproven compromise ages out of its keys faster.
//  2. Expulsion: when one member's suspicion crosses expelThreshold and
//     the controller holds transferable evidence (a signed-message proof
//     meeting the §3.6 bar), it files a change_request. Weak signals
//     (tampered shares, rejected proofs) raise suspicion but can never
//     expel on their own.
//  3. Proactive recovery: independent of suspicion, replicas rotate
//     through restart-from-clean-state + state-transfer resync on a fixed
//     cadence, at most f per domain (and never the active primary) so the
//     remaining 2f+1 keep the PBFT watermark window live.
//
// The controller is a deployment-level singleton with its own
// authenticated identity; its control messages travel through the Group
// Manager's total order like any other, so every correct GM element sees
// identical requests.
package itc

import (
	"fmt"
	"math"
	"time"

	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/smiop"
	"itdos/internal/transport"
)

// Identity is the controller's reserved authenticated identity.
const Identity = "itc"

// gmDomainName mirrors groupmgr.GMDomainName without the dependency.
const gmDomainName = "gm"

// The controller's fixed policy.
const (
	// expelThreshold is the per-member suspicion score at which the
	// controller files an accusation, provided it holds transferable
	// evidence: one isolated strong fault of weight 1 decays away;
	// repeated faults within the decay window cross it.
	expelThreshold = 1.5
	// faultWeight is the score added per voter fault report.
	faultWeight = 1
	// weakWeight is the score added per weak, unprovable signal — a
	// tampered key share, a rejected proof.
	weakWeight = 0.25
	// maxConcurrentRecoveries caps in-flight recoveries (also capped at f
	// per domain regardless).
	maxConcurrentRecoveries = 1
	// tickPeriod is the controller's evaluation period.
	tickPeriod = 50 * time.Millisecond
)

// Config tunes the controller. The zero value of each field selects the
// documented default; rekey scheduling and proactive recovery are opt-in
// (zero interval disables them) so enabling the controller without them
// only adds observation and evidence-gated expulsion.
type Config struct {
	// HalfLife is the suspicion decay half-life (default 2s): an
	// observation's weight halves every HalfLife of virtual time.
	HalfLife time.Duration
	// BaseRekeyInterval is the healthy-system key epoch. 0 disables
	// feedback rekey. With suspicion S summed over a domain's members,
	// the effective epoch is BaseRekeyInterval/(1+S), floored at
	// MinRekeyInterval.
	BaseRekeyInterval time.Duration
	// MinRekeyInterval floors the feedback-shortened epoch (default
	// 250ms).
	MinRekeyInterval time.Duration
	// RecoveryInterval is the proactive-recovery rotation cadence: every
	// interval, the next replica in rotation restarts from clean state. 0
	// disables proactive recovery.
	RecoveryInterval time.Duration
}

func (c *Config) fill() {
	if c.HalfLife <= 0 {
		c.HalfLife = 2 * time.Second
	}
	if c.MinRekeyInterval <= 0 {
		c.MinRekeyInterval = 250 * time.Millisecond
	}
}

// Domain describes one replication domain the controller supervises.
// Only replicated domains rotate through proactive recovery; the Group
// Manager is deliberately excluded (its element state derives from the
// full control-message history, which the queue window does not retain).
type Domain struct {
	Name string
	N, F int
}

// Actions is how the controller acts on the system. The harness
// implements it; every method is invoked on the simulator's driver
// context, so implementations may touch the network directly.
type Actions interface {
	// RequestRekey sends an authenticated rekey_request for the domain
	// into the Group Manager's total order.
	RequestRekey(domain string)
	// FileAccusation sends an authenticated change_request carrying the
	// controller's held evidence. Returns false if it could not be sent.
	FileAccusation(cr *smiop.ChangeRequest) bool
	// StartRecovery restarts a replica from clean state; done is called
	// when its post-recovery state transfer lands. Returns false if the
	// recovery could not be started.
	StartRecovery(domain string, member int, done func()) bool
	// Expelled reports the Group Manager's view of a member.
	Expelled(domain string, member int) bool
	// IsPrimary reports whether the member is its group's active primary.
	IsPrimary(domain string, member int) bool
}

// suspicion is one member's decayed score.
type suspicion struct {
	value float64
	at    time.Duration // virtual time of last update
	gauge *obs.Gauge
}

// memberKey names one supervised (or observed) process member.
type memberKey struct {
	domain string
	member int
}

// Controller is the intrusion-tolerance controller singleton.
type Controller struct {
	cfg     Config
	net     transport.Transport
	act     Actions
	domains []Domain
	metrics *obs.Registry
	tracer  *obs.Tracer
	flight  *flight.Recorder

	scores map[memberKey]*suspicion
	order  []memberKey // deterministic iteration order (first-observed)

	// evidence holds, per suspect, the latest accusation whose proof met
	// the transferable-evidence bar; accused dedupes filings.
	evidence map[memberKey]*smiop.ChangeRequest
	accused  map[memberKey]bool

	lastRekey      map[string]time.Duration
	nextRecoveryAt time.Duration
	rotation       []memberKey // recovery rotation ring over supervised domains
	rotIdx         int
	recovering     map[memberKey]bool
	recovered      map[memberKey]int
	active         int

	started bool
	timer   transport.Timer

	mRekeys     *obs.Counter
	mExpulsions *obs.Counter
	mRecoveries *obs.Counter

	// dumps collects the flight-recorder snapshots taken at threshold
	// crossings; snapshotted dedupes the suspicion-threshold snapshot per
	// member so a noisy adversary cannot flood the dump list.
	dumps       []*flight.Dump
	snapshotted map[memberKey]bool
}

// New builds a controller over the virtual clock. domains lists the
// replication domains to supervise (rekey scheduling and recovery
// rotation); observations may still arrive for any domain or client.
// rec, when non-nil, is the deployment's flight recorder: the controller
// appends its observations and responses to the "itc" ring and snapshots
// every ring when a member crosses the suspicion or expulsion threshold,
// so each graduated response ships with its evidence timeline.
func New(cfg Config, net transport.Transport, act Actions, domains []Domain,
	metrics *obs.Registry, tracer *obs.Tracer, rec *flight.Recorder) (*Controller, error) {
	cfg.fill()
	if net == nil || act == nil {
		return nil, fmt.Errorf("itc: controller needs a network and actions")
	}
	c := &Controller{
		cfg:         cfg,
		net:         net,
		act:         act,
		domains:     append([]Domain(nil), domains...),
		metrics:     metrics,
		tracer:      tracer,
		flight:      rec,
		scores:      make(map[memberKey]*suspicion),
		evidence:    make(map[memberKey]*smiop.ChangeRequest),
		accused:     make(map[memberKey]bool),
		lastRekey:   make(map[string]time.Duration),
		recovering:  make(map[memberKey]bool),
		recovered:   make(map[memberKey]int),
		snapshotted: make(map[memberKey]bool),
	}
	for _, d := range c.domains {
		for i := 0; i < d.N; i++ {
			c.rotation = append(c.rotation, memberKey{d.Name, i})
		}
	}
	if r := metrics; r != nil {
		c.mRekeys = r.Counter("itc_rekeys_total")
		c.mExpulsions = r.Counter("itc_expulsions_total")
		c.mRecoveries = r.Counter("itc_recoveries_total")
	}
	return c, nil
}

// SetTracer installs (or replaces) the tracer used for response events.
// The harness enables tracing after system construction, so the
// controller must accept it late.
func (c *Controller) SetTracer(t *obs.Tracer) { c.tracer = t }

// FlightDumps returns the flight-recorder snapshots taken so far, in
// capture order (nil without a recorder). Each dump marks one threshold
// crossing: a member's suspicion first reaching expelThreshold, or an
// accusation being filed.
func (c *Controller) FlightDumps() []*flight.Dump { return c.dumps }

// record appends one controller event on the "itc" flight ring.
func (c *Controller) record(kind flight.Kind, attr string) {
	c.flight.Append(Identity, kind, 0, 0, 0, attr)
}

// snapshot captures every ring into a dump tagged with reason.
func (c *Controller) snapshot(reason string) {
	if d := c.flight.Snapshot(reason); d != nil {
		c.dumps = append(c.dumps, d)
	}
}

// Start arms the evaluation tick. Idempotent.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	now := c.net.Now()
	for _, d := range c.domains {
		c.lastRekey[d.Name] = now
	}
	c.nextRecoveryAt = now + c.cfg.RecoveryInterval
	c.timer = c.net.After(tickPeriod, c.tick)
}

// Stop cancels the evaluation tick.
func (c *Controller) Stop() {
	c.started = false
	c.timer.Stop()
}

// --- observation ---

// decayed returns the member's score decayed to now.
func (s *suspicion) decayed(now time.Duration, halfLife time.Duration) float64 {
	if s == nil {
		return 0
	}
	dt := now - s.at
	if dt <= 0 {
		return s.value
	}
	return s.value * math.Pow(0.5, float64(dt)/float64(halfLife))
}

func (c *Controller) bump(domain string, member int, weight float64) *suspicion {
	k := memberKey{domain, member}
	s := c.scores[k]
	now := c.net.Now()
	if s == nil {
		s = &suspicion{}
		if c.metrics != nil {
			s.gauge = c.metrics.Gauge("itc_suspicion",
				fmt.Sprintf("member=%s/r%d", domain, member))
		}
		c.scores[k] = s
		c.order = append(c.order, k)
	}
	prev := s.decayed(now, c.cfg.HalfLife)
	s.value = prev + weight
	s.at = now
	s.gauge.Set(s.value)
	// First crossing of the expulsion threshold: snapshot the flight
	// recorder so the evidence timeline that raised the alarm is
	// preserved before any response mutates the system.
	if prev < expelThreshold && s.value >= expelThreshold && !c.snapshotted[k] {
		c.snapshotted[k] = true
		c.snapshot(fmt.Sprintf("suspicion threshold member=%s/r%d", k.domain, k.member))
	}
	return s
}

// Suspicion returns a member's current (decayed) suspicion score.
func (c *Controller) Suspicion(domain string, member int) float64 {
	return c.scores[memberKey{domain, member}].decayed(c.net.Now(), c.cfg.HalfLife)
}

// Recoveries returns how many proactive recoveries of the member have
// completed (state transfer landed), for harness assertions.
func (c *Controller) Recoveries(domain string, member int) int {
	return c.recovered[memberKey{domain, member}]
}

// Accused reports whether the controller has filed an accusation against
// the member.
func (c *Controller) Accused(domain string, member int) bool {
	return c.accused[memberKey{domain, member}]
}

// ObserveFault records a voter fault report against a member. acc, when
// non-nil, is a ready-to-file accusation whose proof meets the
// transferable-evidence bar; the controller retains it and files it once
// suspicion crosses expelThreshold.
func (c *Controller) ObserveFault(domain string, member int, acc *smiop.ChangeRequest) {
	c.record(flight.KindFaultReported,
		fmt.Sprintf("member=%s/r%d evidence=%v", domain, member, acc != nil))
	c.bump(domain, member, faultWeight)
	if acc != nil {
		c.evidence[memberKey{domain, member}] = acc
	}
	c.maybeExpel(memberKey{domain, member})
}

// ObserveShareTamper records a corrupt DPRF share attributed to a Group
// Manager element during key combination.
func (c *Controller) ObserveShareTamper(member int) {
	c.record(flight.KindShareTamper, fmt.Sprintf("member=%s/r%d", gmDomainName, member))
	c.bump(gmDomainName, member, weakWeight)
}

// ObserveRejectedProof records a change_request whose proof the Group
// Manager rejected — evidence against the accuser, not the accused.
func (c *Controller) ObserveRejectedProof(domain string, member int) {
	c.record(flight.KindProofRejected, fmt.Sprintf("accuser=%s/r%d", domain, member))
	c.bump(domain, member, weakWeight)
}

// --- responses ---

func (c *Controller) maybeExpel(k memberKey) {
	if c.accused[k] || c.act.Expelled(k.domain, k.member) {
		return
	}
	acc := c.evidence[k]
	if acc == nil {
		return // no transferable evidence: suspicion alone never expels
	}
	now := c.net.Now()
	if c.scores[k].decayed(now, c.cfg.HalfLife) < expelThreshold {
		return
	}
	if !c.act.FileAccusation(acc) {
		return
	}
	c.accused[k] = true
	c.mExpulsions.Inc()
	c.record(flight.KindExpulsionFiled, fmt.Sprintf("member=%s/r%d", k.domain, k.member))
	c.event("itc.expel", fmt.Sprintf("member=%s/r%d", k.domain, k.member))
	c.snapshot(fmt.Sprintf("expulsion filed member=%s/r%d", k.domain, k.member))
}

func (c *Controller) tick() {
	if !c.started {
		return
	}
	now := c.net.Now()
	// Refresh gauges and re-check evidence-gated expulsions in
	// deterministic (first-observed) order.
	for _, k := range c.order {
		s := c.scores[k]
		s.gauge.Set(s.decayed(now, c.cfg.HalfLife))
		c.maybeExpel(k)
	}
	if c.cfg.BaseRekeyInterval > 0 {
		for _, d := range c.domains {
			sum := 0.0
			for i := 0; i < d.N; i++ {
				sum += c.scores[memberKey{d.Name, i}].decayed(now, c.cfg.HalfLife)
			}
			interval := time.Duration(float64(c.cfg.BaseRekeyInterval) / (1 + sum))
			if interval < c.cfg.MinRekeyInterval {
				interval = c.cfg.MinRekeyInterval
			}
			if now-c.lastRekey[d.Name] >= interval {
				c.lastRekey[d.Name] = now
				c.act.RequestRekey(d.Name)
				c.mRekeys.Inc()
				c.record(flight.KindRekey, "domain="+d.Name)
				c.event("itc.rekey", "domain="+d.Name)
			}
		}
	}
	if c.cfg.RecoveryInterval > 0 && now >= c.nextRecoveryAt {
		c.nextRecoveryAt = now + c.cfg.RecoveryInterval
		c.rotateRecovery()
	}
	c.timer = c.net.After(tickPeriod, c.tick)
}

// rotateRecovery starts the next eligible replica's proactive recovery.
// Eligibility keeps the watermark window live: never more than
// maxConcurrentRecoveries in flight globally, at most f per domain, never
// an expelled member (it is keyed out anyway), and never the active
// primary (wiping the primary's log would force a view change instead of
// hygiene).
func (c *Controller) rotateRecovery() {
	if c.active >= maxConcurrentRecoveries || len(c.rotation) == 0 {
		return
	}
	perDomain := make(map[string]int)
	for k, rec := range c.recovering {
		if rec {
			perDomain[k.domain]++
		}
	}
	for scanned := 0; scanned < len(c.rotation); scanned++ {
		k := c.rotation[c.rotIdx]
		c.rotIdx = (c.rotIdx + 1) % len(c.rotation)
		f := 0
		for _, d := range c.domains {
			if d.Name == k.domain {
				f = d.F
			}
		}
		if c.recovering[k] || perDomain[k.domain] >= f {
			continue
		}
		if c.act.Expelled(k.domain, k.member) || c.act.IsPrimary(k.domain, k.member) {
			continue
		}
		if !c.act.StartRecovery(k.domain, k.member, func() {
			c.active--
			c.recovering[k] = false
			c.recovered[k]++
			c.record(flight.KindRecoveryComplete, fmt.Sprintf("member=%s/r%d", k.domain, k.member))
			c.event("itc.recovered", fmt.Sprintf("member=%s/r%d", k.domain, k.member))
		}) {
			continue
		}
		c.active++
		c.recovering[k] = true
		c.mRecoveries.Inc()
		c.record(flight.KindRecoveryStart, fmt.Sprintf("member=%s/r%d", k.domain, k.member))
		c.event("itc.recover", fmt.Sprintf("member=%s/r%d", k.domain, k.member))
		return
	}
}

// event records a point span for a controller response.
func (c *Controller) event(name, attr string) {
	if c.tracer == nil {
		return
	}
	c.tracer.StartDetached(name, attr).End()
}
