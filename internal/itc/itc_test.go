package itc

import (
	"testing"
	"time"

	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/smiop"
)

// fakeActions records every response the controller takes.
type fakeActions struct {
	rekeys     []string
	filed      []*smiop.ChangeRequest
	recoveries []memberKey
	dones      []func()
	expelled   map[memberKey]bool
	primary    map[memberKey]bool
	refuse     bool // StartRecovery returns false
}

func newFakeActions() *fakeActions {
	return &fakeActions{
		expelled: make(map[memberKey]bool),
		primary:  make(map[memberKey]bool),
	}
}

func (a *fakeActions) RequestRekey(domain string) { a.rekeys = append(a.rekeys, domain) }

func (a *fakeActions) FileAccusation(cr *smiop.ChangeRequest) bool {
	a.filed = append(a.filed, cr)
	return true
}

func (a *fakeActions) StartRecovery(domain string, member int, done func()) bool {
	if a.refuse {
		return false
	}
	a.recoveries = append(a.recoveries, memberKey{domain, member})
	a.dones = append(a.dones, done)
	return true
}

func (a *fakeActions) Expelled(domain string, member int) bool {
	return a.expelled[memberKey{domain, member}]
}

func (a *fakeActions) IsPrimary(domain string, member int) bool {
	return a.primary[memberKey{domain, member}]
}

func newTestController(t *testing.T, cfg Config, act Actions) (*Controller, *netsim.Network) {
	t.Helper()
	net := netsim.NewNetwork(1, netsim.ConstantLatency(time.Millisecond))
	ctrl, err := New(cfg, net, act, []Domain{{Name: "calc", N: 4, F: 1}}, obs.NewRegistry(), nil,
		flight.NewRecorder(net, 64))
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, net
}

func TestSuspicionDecaysWithHalfLife(t *testing.T) {
	ctrl, net := newTestController(t, Config{HalfLife: time.Second}, newFakeActions())
	ctrl.ObserveFault("calc", 2, nil)
	if s := ctrl.Suspicion("calc", 2); s != 1 {
		t.Fatalf("fresh fault score = %v, want 1", s)
	}
	net.RunFor(time.Second)
	if s := ctrl.Suspicion("calc", 2); s < 0.49 || s > 0.51 {
		t.Fatalf("score after one half-life = %v, want ~0.5", s)
	}
	net.RunFor(time.Second)
	if s := ctrl.Suspicion("calc", 2); s < 0.24 || s > 0.26 {
		t.Fatalf("score after two half-lives = %v, want ~0.25", s)
	}
	// A second fault adds onto the decayed value, not the original.
	ctrl.ObserveFault("calc", 2, nil)
	if s := ctrl.Suspicion("calc", 2); s < 1.24 || s > 1.26 {
		t.Fatalf("score after decay + fault = %v, want ~1.25", s)
	}
	// Unobserved members read as zero.
	if s := ctrl.Suspicion("calc", 0); s != 0 {
		t.Fatalf("unobserved member score = %v, want 0", s)
	}
}

func TestWeakSignalsNeverExpel(t *testing.T) {
	act := newFakeActions()
	ctrl, _ := newTestController(t, Config{HalfLife: time.Hour}, act)
	// Pile weak signals far past the threshold: no decay to speak of, the
	// score crosses 1.5, but with no transferable evidence nothing files.
	for i := 0; i < 20; i++ {
		ctrl.ObserveFallback("calc", 2)
		ctrl.ObserveRejectedProof("calc", 2)
	}
	if s := ctrl.Suspicion("calc", 2); s < 1.5 {
		t.Fatalf("score = %v, want >= threshold for this test to bite", s)
	}
	if len(act.filed) != 0 {
		t.Fatalf("weak signals filed %d accusations", len(act.filed))
	}
	if ctrl.Accused("calc", 2) {
		t.Fatal("controller marked member accused without evidence")
	}
}

func TestEvidenceGatedExpulsion(t *testing.T) {
	act := newFakeActions()
	ctrl, _ := newTestController(t, Config{HalfLife: time.Hour}, act)
	acc := &smiop.ChangeRequest{TargetDomain: "calc", Accused: 2}
	// One fault with evidence: below threshold, evidence retained, no filing.
	ctrl.ObserveFault("calc", 2, acc)
	if len(act.filed) != 0 {
		t.Fatalf("filed below threshold: %d", len(act.filed))
	}
	// Second fault crosses the threshold: the retained evidence files once.
	ctrl.ObserveFault("calc", 2, nil)
	if len(act.filed) != 1 || act.filed[0] != acc {
		t.Fatalf("filed = %v, want the retained accusation once", act.filed)
	}
	if !ctrl.Accused("calc", 2) {
		t.Fatal("controller did not record the accusation")
	}
	// Further faults do not re-file.
	ctrl.ObserveFault("calc", 2, acc)
	if len(act.filed) != 1 {
		t.Fatalf("re-filed against an accused member: %d", len(act.filed))
	}
	// An already-expelled member is never accused.
	act.expelled[memberKey{"calc", 0}] = true
	ctrl.ObserveFault("calc", 0, &smiop.ChangeRequest{TargetDomain: "calc"})
	ctrl.ObserveFault("calc", 0, nil)
	if len(act.filed) != 1 {
		t.Fatalf("accused an expelled member: %d filings", len(act.filed))
	}
}

func TestFlightSnapshotsAtThresholds(t *testing.T) {
	act := newFakeActions()
	ctrl, _ := newTestController(t, Config{HalfLife: time.Hour}, act)
	acc := &smiop.ChangeRequest{TargetDomain: "calc", Accused: 2}
	// Below threshold nothing is snapshotted.
	ctrl.ObserveFault("calc", 2, acc)
	if n := len(ctrl.FlightDumps()); n != 0 {
		t.Fatalf("dumps below threshold = %d, want 0", n)
	}
	// Crossing the threshold snapshots once for the crossing and once for
	// the accusation the retained evidence files.
	ctrl.ObserveFault("calc", 2, nil)
	dumps := ctrl.FlightDumps()
	if len(dumps) != 2 {
		t.Fatalf("dumps after crossing = %d, want 2", len(dumps))
	}
	if want := "suspicion threshold member=calc/r2"; dumps[0].Reason != want {
		t.Fatalf("dump[0].Reason = %q, want %q", dumps[0].Reason, want)
	}
	if want := "expulsion filed member=calc/r2"; dumps[1].Reason != want {
		t.Fatalf("dump[1].Reason = %q, want %q", dumps[1].Reason, want)
	}
	// The controller's own ring carries the evidence chain: every
	// fault-reported event precedes the expulsion-filed event in vtime.
	var itcLog *flight.ReplicaLog
	for i := range dumps[1].Replicas {
		if dumps[1].Replicas[i].Identity == Identity {
			itcLog = &dumps[1].Replicas[i]
		}
	}
	if itcLog == nil {
		t.Fatalf("no %q replica log in dump", Identity)
	}
	faults, filedAt := 0, int64(-1)
	for _, ev := range itcLog.Events {
		switch ev.Kind {
		case "fault-reported":
			faults++
			if filedAt >= 0 && ev.VTUS > filedAt {
				t.Fatalf("fault-reported at %dus after expulsion-filed at %dus", ev.VTUS, filedAt)
			}
		case "expulsion-filed":
			filedAt = ev.VTUS
		}
	}
	if faults != 2 || filedAt < 0 {
		t.Fatalf("evidence chain = %d faults, filed=%v, want 2 faults then a filing", faults, filedAt >= 0)
	}
	// Repeat faults against an accused member add no further snapshots.
	ctrl.ObserveFault("calc", 2, acc)
	if n := len(ctrl.FlightDumps()); n != 2 {
		t.Fatalf("dumps after re-fault = %d, want 2", n)
	}
}

func TestFeedbackRekeyShortensEpochUnderSuspicion(t *testing.T) {
	act := newFakeActions()
	ctrl, net := newTestController(t, Config{
		HalfLife:          time.Hour, // hold suspicion steady for the window
		BaseRekeyInterval: time.Second,
		MinRekeyInterval:  100 * time.Millisecond,
	}, act)
	ctrl.Start()
	defer ctrl.Stop()
	// Healthy: one rekey per BaseRekeyInterval.
	net.RunFor(3500 * time.Millisecond)
	healthy := len(act.rekeys)
	if healthy != 3 {
		t.Fatalf("healthy rekeys in 3.5s = %d, want 3", healthy)
	}
	// Domain suspicion sum 3 → interval base/(1+3) = 250ms.
	ctrl.ObserveFault("calc", 1, nil)
	ctrl.ObserveFault("calc", 1, nil)
	ctrl.ObserveFault("calc", 3, nil)
	net.RunFor(3500 * time.Millisecond)
	suspicious := len(act.rekeys) - healthy
	if suspicious < 12 || suspicious > 15 {
		t.Fatalf("suspicious rekeys in 3.5s = %d, want ~14 (250ms epoch)", suspicious)
	}
	// Extreme suspicion floors at MinRekeyInterval, not zero.
	for i := 0; i < 40; i++ {
		ctrl.ObserveFault("calc", 0, nil)
	}
	before := len(act.rekeys)
	net.RunFor(time.Second)
	floored := len(act.rekeys) - before
	if floored < 9 || floored > 11 {
		t.Fatalf("floored rekeys in 1s = %d, want ~10 (100ms floor)", floored)
	}
	for _, d := range act.rekeys {
		if d != "calc" {
			t.Fatalf("rekeyed unexpected domain %q", d)
		}
	}
}

func TestRecoveryRotationCapsAndSkips(t *testing.T) {
	act := newFakeActions()
	act.primary[memberKey{"calc", 0}] = true
	act.expelled[memberKey{"calc", 3}] = true
	ctrl, net := newTestController(t, Config{RecoveryInterval: 100 * time.Millisecond}, act)
	ctrl.Start()
	defer ctrl.Stop()
	// First rotation: member 0 is primary (skipped), member 1 starts.
	net.RunFor(150 * time.Millisecond)
	if len(act.recoveries) != 1 || act.recoveries[0] != (memberKey{"calc", 1}) {
		t.Fatalf("recoveries = %v, want [calc/1]", act.recoveries)
	}
	// With the recovery still in flight, further intervals start nothing:
	// the global cap (and the f=1 per-domain cap) holds.
	net.RunFor(time.Second)
	if len(act.recoveries) != 1 {
		t.Fatalf("cap violated: %v", act.recoveries)
	}
	if ctrl.Recoveries("calc", 1) != 0 {
		t.Fatal("recovery counted before done")
	}
	// Completion frees the slot; the rotation resumes at member 2 and skips
	// the expelled member 3 and the primary 0 on the next pass.
	act.dones[0]()
	net.RunFor(150 * time.Millisecond)
	if len(act.recoveries) != 2 || act.recoveries[1] != (memberKey{"calc", 2}) {
		t.Fatalf("recoveries = %v, want [calc/1 calc/2]", act.recoveries)
	}
	if ctrl.Recoveries("calc", 1) != 1 {
		t.Fatalf("completed recoveries for calc/1 = %d, want 1", ctrl.Recoveries("calc", 1))
	}
	act.dones[1]()
	net.RunFor(150 * time.Millisecond)
	if len(act.recoveries) != 3 || act.recoveries[2] != (memberKey{"calc", 1}) {
		t.Fatalf("recoveries = %v, want rotation to wrap to calc/1", act.recoveries)
	}
	// A harness refusing to start a recovery leaves the slot free.
	act.dones[2]()
	act.refuse = true
	net.RunFor(time.Second)
	if len(act.recoveries) != 3 {
		t.Fatalf("refused recovery still recorded: %v", act.recoveries)
	}
}
