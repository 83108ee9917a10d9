package bench

import (
	"bytes"
	"fmt"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/fault"
	"itdos/internal/itc"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/orb"
	"itdos/internal/replica"
)

// The campaign experiments (C9–C11) script multi-stage seeded adversary
// campaigns against a deployment with the intrusion-tolerance controller
// enabled, and assert the closed loop end to end: decisions stay correct
// throughout, at most f members are ever expelled, and liveness is
// restored after each response. Unlike C1–C8 (single-fault measurements),
// these run an adversary *policy* over virtual time and let the
// controller answer. Every row is an assertion: Run returns an error if
// the invariant behind a cell does not hold, which is what `itdos-bench
// -check C9,C10,C11` (the `make campaign` CI gate) relies on.

// campaignCall invokes add(21,21) and checks the voted answer.
func campaignCall(sys *replica.System) error {
	res, err := sys.Client("alice").CallAndRun(calcRef, "add",
		[]cdr.Value{21.0, 21.0}, 10_000_000)
	if err != nil {
		return err
	}
	if res[0].(float64) != 42.0 {
		return fmt.Errorf("campaign: voted decision wrong: got %v, want 42", res[0])
	}
	return nil
}

// expelledSet returns the expelled member indices every GM element agrees
// on, and errors on divergence between GM elements.
func expelledSet(sys *replica.System, domain string, n int) ([]int, error) {
	var out []int
	for m := 0; m < n; m++ {
		exp := sys.GMManagers[0].IsExpelled(domain, m)
		for j, mgr := range sys.GMManagers {
			if mgr.IsExpelled(domain, m) != exp {
				return nil, fmt.Errorf("campaign: GM elements 0 and %d disagree on %s/r%d", j, domain, m)
			}
		}
		if exp {
			out = append(out, m)
		}
	}
	return out, nil
}

// flightChain asserts that identity's timeline in d contains the kinds as
// a subsequence, in order: each kind must appear at a virtual time at or
// after the previous kind's match. This is the forensic invariant the
// campaign dumps exist to prove — e.g. C10's fault report ≺ rekey ≺
// expulsion.
func flightChain(d *flight.Dump, identity string, kinds ...string) error {
	if d == nil {
		return fmt.Errorf("campaign: no flight dump to check")
	}
	var log *flight.ReplicaLog
	for i := range d.Replicas {
		if d.Replicas[i].Identity == identity {
			log = &d.Replicas[i]
		}
	}
	if log == nil {
		return fmt.Errorf("campaign: dump %q has no %q timeline", d.Reason, identity)
	}
	next := 0
	for _, ev := range log.Events {
		if next < len(kinds) && ev.Kind == kinds[next] {
			next++
		}
	}
	if next < len(kinds) {
		return fmt.Errorf("campaign: dump %q: %s timeline missing %q (matched %d of %v)",
			d.Reason, identity, kinds[next], next, kinds)
	}
	return nil
}

// flightArtifact renders the dump into t.Artifacts as FLIGHT_<id>.json.
func flightArtifact(t *Table, d *flight.Dump) error {
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		return err
	}
	if t.Artifacts == nil {
		t.Artifacts = make(map[string][]byte)
	}
	t.Artifacts["FLIGHT_"+t.ID+".json"] = buf.Bytes()
	return nil
}

// traceArtifact renders a span forest into t.Artifacts as TRACE_<name>.
// The determinism regressions compare these byte-for-byte across seeded
// re-runs: pooled-buffer reuse in the zero-copy pipeline must never leak
// into observable span ordering or content.
func traceArtifact(t *Table, name string, tr *obs.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return err
	}
	if t.Artifacts == nil {
		t.Artifacts = make(map[string][]byte)
	}
	t.Artifacts[name] = buf.Bytes()
	return nil
}

func clientEra(sys *replica.System, domain string) uint64 {
	alice := sys.Client("alice")
	id, ok := alice.ConnTo(domain)
	if !ok {
		return 0
	}
	return alice.Conn(id).KeyEra()
}

// C9 runs two campaigns against the feedback controller: a slow
// compromise that spaces its lies out to stay under the expulsion
// threshold (the controller answers by shortening the key epoch), and an
// overt collusion of f replicas (the controller expels both, and only
// both, on transferable evidence).
func C9() (*Table, error) {
	t := &Table{
		ID:    "C9",
		Title: "Campaign: slow compromise vs. overt collusion",
		Source: "tentpole (feedback-scheduled rekey + evidence-gated expulsion; " +
			"Hammar & Stadler-style response levels)",
		Headers: []string{"campaign", "decisions correct", "expelled",
			"key era", "peak suspicion", "controller response"},
	}

	// Feedback-rekey config shared by the control and slow-compromise
	// rows so their key eras are comparable.
	feedback := &itc.Config{
		HalfLife:          time.Second,
		BaseRekeyInterval: 4 * time.Second,
	}
	runPaced := func(opts calcOpts, calls int) (*replica.System, float64, error) {
		sys, err := newCalcSystem(opts)
		if err != nil {
			return nil, 0, err
		}
		peak := 0.0
		for i := 0; i < calls; i++ {
			if err := campaignCall(sys); err != nil {
				_ = sys.Close()
				return nil, 0, err
			}
			if s := sys.ITC().Suspicion("calc", 2); s > peak {
				peak = s
			}
			sys.Net.RunFor(500 * time.Millisecond)
		}
		return sys, peak, nil
	}

	// Row 1: healthy control — the baseline epoch under zero suspicion.
	const paced = 30
	sys, _, err := runPaced(calcOpts{itc: feedback, seed: 90}, paced)
	if err != nil {
		return nil, err
	}
	baseEra := clientEra(sys, "calc")
	if exp, err := expelledSet(sys, "calc", 4); err != nil {
		return nil, err
	} else if len(exp) != 0 {
		return nil, fmt.Errorf("C9 control: unexpected expulsions %v", exp)
	}
	t.Rows = append(t.Rows, []string{
		"healthy control",
		fmt.Sprintf("%d/%d", paced, paced),
		"none",
		fmt.Sprintf("%d", baseEra),
		"0.00",
		"baseline epoch (4 s)",
	})
	_ = sys.Close()

	// Row 2: slow compromise — calc/r2 lies on every 5th call, spacing
	// its faults ~2.5 s apart so the decayed score stays under the 1.5
	// expulsion threshold. Every lie is masked; the domain's aggregate
	// suspicion shortens the key epoch instead.
	sys, peak, err := runPaced(calcOpts{
		itc: feedback,
		servant: func(member int) orb.Servant {
			if member == 2 {
				return fault.IntermittentLyingServant(calcServant(), 5, cdr.Value(666.0))
			}
			return calcServant()
		},
		seed: 90,
	}, paced)
	if err != nil {
		return nil, err
	}
	slowEra := clientEra(sys, "calc")
	if exp, err := expelledSet(sys, "calc", 4); err != nil {
		return nil, err
	} else if len(exp) != 0 {
		return nil, fmt.Errorf("C9 slow compromise: expelled %v, want none (under threshold)", exp)
	}
	if peak >= 1.5 {
		return nil, fmt.Errorf("C9 slow compromise: peak suspicion %.2f crossed the threshold", peak)
	}
	if peak <= 0 {
		return nil, fmt.Errorf("C9 slow compromise: no faults observed")
	}
	if slowEra <= baseEra {
		return nil, fmt.Errorf("C9 slow compromise: era %d not shortened vs control %d", slowEra, baseEra)
	}
	t.Rows = append(t.Rows, []string{
		"slow compromise (r2 lies every 5th call)",
		fmt.Sprintf("%d/%d", paced, paced),
		"none",
		fmt.Sprintf("%d", slowEra),
		fmt.Sprintf("%.2f", peak),
		"epoch feedback-shortened",
	})
	_ = sys.Close()

	// Row 3: overt collusion — in a n=7, f=2 domain, r1 and r3 lie with
	// the same value on every call. f+1=3 honest matches still out-vote
	// them; repeated provable faults cross the threshold and the
	// controller files both accusations. Exactly f members end expelled
	// and the domain keeps serving on the remaining 5 = 2f+1.
	sys, err = newCalcSystem(calcOpts{
		n: 7, f: 2,
		itc:    &itc.Config{HalfLife: 2 * time.Second},
		flight: flight.New(0),
		servant: func(member int) orb.Servant {
			if member == 1 || member == 3 {
				return fault.LyingServant(cdr.Value(666.0))
			}
			return calcServant()
		},
		seed: 91,
	})
	if err != nil {
		return nil, err
	}
	colluded := 0
	bothOut := func() bool {
		return sys.GMManagers[0].IsExpelled("calc", 1) && sys.GMManagers[0].IsExpelled("calc", 3)
	}
	for i := 0; i < 10 && !bothOut(); i++ {
		if err := campaignCall(sys); err != nil {
			_ = sys.Close()
			return nil, err
		}
		colluded++
		sys.Net.RunFor(100 * time.Millisecond)
	}
	if err := sys.RunUntil(bothOut, 50_000_000); err != nil {
		return nil, fmt.Errorf("C9 collusion: colluders not expelled: %w", err)
	}
	exp, err := expelledSet(sys, "calc", 7)
	if err != nil {
		return nil, err
	}
	if len(exp) != 2 || exp[0] != 1 || exp[1] != 3 {
		return nil, fmt.Errorf("C9 collusion: expelled %v, want exactly [1 3] (<= f)", exp)
	}
	// Liveness restored: the surviving 2f+1 keep answering correctly.
	for i := 0; i < 3; i++ {
		if err := campaignCall(sys); err != nil {
			_ = sys.Close()
			return nil, fmt.Errorf("C9 collusion: post-expulsion call failed: %w", err)
		}
	}
	t.Rows = append(t.Rows, []string{
		"overt collusion (r1+r3, n=7 f=2)",
		fmt.Sprintf("%d/%d + 3 after expulsion", colluded, colluded),
		"r1, r3 (= f)",
		fmt.Sprintf("%d", clientEra(sys, "calc")),
		">= 1.5",
		"both expelled, keyed out",
	})
	// Forensics: the controller snapshotted the flight recorder at each
	// threshold crossing and filing; the final dump's own timeline must
	// show the evidence (fault reports) preceding both expulsions.
	dumps := sys.ITC().FlightDumps()
	if len(dumps) == 0 {
		return nil, fmt.Errorf("C9 collusion: controller took no flight dumps")
	}
	final := dumps[len(dumps)-1]
	if err := flightChain(final, itc.Identity,
		"fault-reported", "expulsion-filed", "expulsion-filed"); err != nil {
		return nil, err
	}
	if err := flightArtifact(t, final); err != nil {
		return nil, err
	}
	_ = sys.Close()

	t.Note = "suspicion decays with a 1 s half-life; a lie every ~2.5 s converges " +
		"below the 1.5 expulsion threshold, so the controller cannot justly expel — " +
		"instead the domain's key epoch contracts from its 4 s base. The overt " +
		"colluders generate transferable signed-message proof on every call and " +
		"cross the threshold immediately; exactly f members are expelled and the " +
		"remaining 2f+1 restore full service."
	return t, nil
}

// C10 compromises the designated responder of the digest-reply protocol
// under key churn: the lying responder only surfaces through fallback
// rounds (weak signals) until the redone full vote yields transferable
// evidence, at which point the controller expels it; the responder
// rotation then skips the expelled member and the fallbacks stop.
func C10() (*Table, error) {
	t := &Table{
		ID:    "C10",
		Title: "Campaign: lying designated responder under key churn",
		Source: "tentpole + satellite (digest-path fault reports feed the " +
			"controller; feedback rekey keeps churning eras meanwhile)",
		Headers: []string{"phase", "calls", "decisions correct", "expelled", "key era"},
	}
	sys, err := newCalcSystem(calcOpts{
		digest: true,
		flight: flight.New(0),
		itc: &itc.Config{
			HalfLife:          2 * time.Second,
			BaseRekeyInterval: 1500 * time.Millisecond,
		},
		servant: func(member int) orb.Servant {
			if member == 2 {
				return fault.LyingServant(cdr.Value(666.0))
			}
			return calcServant()
		},
		seed: 92,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	tr := sys.EnableTracing()

	out := func() bool { return sys.GMManagers[0].IsExpelled("calc", 2) }
	pre := 0
	for i := 0; i < 40 && !out(); i++ {
		if err := campaignCall(sys); err != nil {
			return nil, err
		}
		pre++
		sys.Net.RunFor(250 * time.Millisecond)
	}
	if err := sys.RunUntil(out, 50_000_000); err != nil {
		return nil, fmt.Errorf("C10: lying responder never expelled: %w", err)
	}
	exp, err := expelledSet(sys, "calc", 4)
	if err != nil {
		return nil, err
	}
	if len(exp) != 1 || exp[0] != 2 {
		return nil, fmt.Errorf("C10: expelled %v, want exactly [2]", exp)
	}
	eraAtExpulsion := clientEra(sys, "calc")
	if eraAtExpulsion < 2 {
		return nil, fmt.Errorf("C10: era %d at expulsion, want >= 2 (feedback churn + expulsion rekey)", eraAtExpulsion)
	}
	// Forensics: the expulsion dump's controller timeline must carry the
	// full evidence chain in virtual-time order — the lying responder's
	// fault report, then a feedback rekey churning the era, then the
	// expulsion filing the retained evidence justified.
	dumps := sys.ITC().FlightDumps()
	if len(dumps) == 0 {
		return nil, fmt.Errorf("C10: controller took no flight dumps")
	}
	final := dumps[len(dumps)-1]
	if err := flightChain(final, itc.Identity,
		"fault-reported", "rekey", "expulsion-filed"); err != nil {
		return nil, err
	}
	if err := flightArtifact(t, final); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"responder compromised",
		fmt.Sprintf("%d", pre),
		fmt.Sprintf("%d/%d (fallback masks the liar)", pre, pre),
		"r2 after evidence",
		fmt.Sprintf("%d", eraAtExpulsion),
	})

	// Liveness restored: two full responder-rotation cycles with r2
	// skipped — every reply decides on the happy path again.
	const post = 8
	for i := 0; i < post; i++ {
		if err := campaignCall(sys); err != nil {
			return nil, fmt.Errorf("C10: post-expulsion call failed: %w", err)
		}
	}
	t.Rows = append(t.Rows, []string{
		"after expulsion (rotation skips r2)",
		fmt.Sprintf("%d", post),
		fmt.Sprintf("%d/%d", post, post),
		"r2 only (<= f)",
		fmt.Sprintf("%d", clientEra(sys, "calc")),
	})
	if err := traceArtifact(t, "TRACE_C10.json", tr); err != nil {
		return nil, err
	}
	t.Note = "a lying designated responder stalls the digest vote (weak fallback " +
		"signal, +0.25 suspicion) and the redone full vote carries its lying full " +
		"reply, producing a signed-message proof (+1.0, evidence retained); the " +
		"controller files once the decayed score crosses 1.5, while " +
		"feedback-scheduled rekeys churn key eras underneath. Decisions are correct " +
		"throughout — fallback re-votes mask every lie at one extra round-trip."
	return t, nil
}

// C11 plants a sub-threshold foothold and lets the proactive-recovery
// rotation evict it: the compromise never crosses the expulsion bar, but
// the periodic restart-from-clean-code-image reaches the replica anyway,
// the campaign's foothold does not survive it, and suspicion decays back
// toward zero with no expulsion ever filed.
func C11() (*Table, error) {
	t := &Table{
		ID:    "C11",
		Title: "Campaign: compromised-then-recovered replica",
		Source: "tentpole (proactive recovery as hygiene — SecureSMART-style " +
			"rotation, <= f recovering, never the active primary)",
		Headers: []string{"phase", "calls", "decisions correct",
			"r2 suspicion", "r2 recoveries", "expelled"},
	}
	sw := fault.NewSwitch()
	rec := flight.New(0)
	sys, err := newCalcSystem(calcOpts{
		flight: rec,
		itc: &itc.Config{
			HalfLife:         time.Second,
			RecoveryInterval: 800 * time.Millisecond,
		},
		// Recoveries complete via checkpoint-driven state transfer, so a
		// short checkpoint interval keeps the rotation brisk relative to
		// the campaign's call rate.
		checkpoint: 4,
		servant: func(member int) orb.Servant {
			if member == 2 {
				return sw.Wrap(calcServant())
			}
			return calcServant()
		},
		seed: 93,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	ctrl := sys.ITC()

	// Phase 1: healthy warm-up, then the adversary plants a foothold on
	// r2 that lies on every 3rd call — sparse enough (with the pacing
	// below) to stay under the expulsion threshold.
	healthy := 3
	for i := 0; i < healthy; i++ {
		if err := campaignCall(sys); err != nil {
			return nil, err
		}
		sys.Net.RunFor(400 * time.Millisecond)
	}
	sw.Compromise(fault.IntermittentLyingServant(calcServant(), 3, cdr.Value(666.0)))

	// Phase 2: keep calling until the rotation's clean restart reaches
	// r2. The foothold is in-memory only, so it does not survive the
	// restart: the campaign restores the clean servant at that point.
	foothold := 0
	for i := 0; i < 20 && ctrl.Recoveries("calc", 2) == 0; i++ {
		if err := campaignCall(sys); err != nil {
			return nil, err
		}
		foothold++
		sys.Net.RunFor(400 * time.Millisecond)
	}
	if ctrl.Recoveries("calc", 2) == 0 {
		return nil, fmt.Errorf("C11: rotation never recovered calc/r2")
	}
	sw.Restore()
	atRestore := ctrl.Suspicion("calc", 2)
	if atRestore <= 0 {
		return nil, fmt.Errorf("C11: foothold produced no observable faults before recovery")
	}
	if ctrl.Accused("calc", 2) {
		return nil, fmt.Errorf("C11: sub-threshold foothold was accused (suspicion %.2f)", atRestore)
	}
	t.Rows = append(t.Rows, []string{
		"foothold active (lies every 3rd call)",
		fmt.Sprintf("%d", foothold),
		fmt.Sprintf("%d/%d", foothold, foothold),
		fmt.Sprintf("%.2f (< 1.5)", atRestore),
		"0 -> 1",
		"none",
	})

	// Phase 3: the recovered replica serves again and suspicion decays.
	upcallsBefore := sys.Domain("calc").Elements[2].Upcalls
	const post = 5
	for i := 0; i < post; i++ {
		if err := campaignCall(sys); err != nil {
			return nil, fmt.Errorf("C11: post-recovery call failed: %w", err)
		}
		sys.Net.RunFor(400 * time.Millisecond)
	}
	if got := sys.Domain("calc").Elements[2].Upcalls; got <= upcallsBefore {
		return nil, fmt.Errorf("C11: recovered replica executed no upcalls (%d -> %d)", upcallsBefore, got)
	}
	after := ctrl.Suspicion("calc", 2)
	if after >= atRestore {
		return nil, fmt.Errorf("C11: suspicion did not decay after recovery (%.2f -> %.2f)", atRestore, after)
	}
	if exp, err := expelledSet(sys, "calc", 4); err != nil {
		return nil, err
	} else if len(exp) != 0 {
		return nil, fmt.Errorf("C11: expelled %v, want none", exp)
	}
	t.Rows = append(t.Rows, []string{
		"after proactive recovery of r2",
		fmt.Sprintf("%d", post),
		fmt.Sprintf("%d/%d", post, post),
		fmt.Sprintf("%.2f (decaying)", after),
		fmt.Sprintf("%d", ctrl.Recoveries("calc", 2)),
		"none",
	})
	// Forensics: the sub-threshold foothold must trigger no controller
	// snapshot (no threshold crossing, no filing); the campaign takes its
	// own end-of-run dump, whose controller timeline shows the rotation —
	// recovery started and completed — doing the evicting instead.
	if n := len(ctrl.FlightDumps()); n != 0 {
		return nil, fmt.Errorf("C11: controller snapshotted %d dumps for a sub-threshold foothold", n)
	}
	final := rec.Snapshot("C11 campaign end (rotation evicted the foothold)")
	if err := flightChain(final, itc.Identity, "recovery-start", "recovery-complete"); err != nil {
		return nil, err
	}
	if err := flightArtifact(t, final); err != nil {
		return nil, err
	}
	t.Note = "the foothold lies too rarely to cross the expulsion threshold, so " +
		"detection alone would leave it resident indefinitely; the recovery " +
		"rotation restarts each non-primary replica from its clean code image on a " +
		"fixed cadence (at most f at once), evicting the compromise without any " +
		"accusation. The replica rejoins via checkpoint state transfer and keeps " +
		"executing; its residual suspicion decays back toward zero."
	return t, nil
}

// CheckCampaign runs one campaign experiment as a CI gate: the run's
// internal assertions are the check.
func CheckCampaign(id string) error {
	e, ok := ByID(id)
	if !ok {
		return fmt.Errorf("bench: unknown campaign %q", id)
	}
	_, err := e.Run()
	return err
}
