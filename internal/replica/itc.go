package replica

import (
	"itdos/internal/itc"
	"itdos/internal/smiop"
)

// buildITC constructs the intrusion-tolerance controller over the
// system's supervised domains. The controller is a deployment-level
// singleton with its own authenticated identity; its rekey_requests and
// change_requests travel into the Group Manager's total order through
// the same queued PBFT client path every other process uses.
func (sys *System) buildITC() error {
	domains := make([]itc.Domain, 0, len(sys.cfg.Domains))
	for _, d := range sys.cfg.Domains {
		domains = append(domains, itc.Domain{Name: d.Name, N: d.N, F: d.F})
	}
	ctrl, err := itc.New(*sys.cfg.ITC, sys.tr, &itcActions{sys: sys}, domains,
		sys.cfg.Metrics, sys.tracer, sys.cfg.Flight)
	if err != nil {
		return err
	}
	sys.itc = ctrl
	ctrl.Start()
	return nil
}

// ITC returns the intrusion-tolerance controller (nil when disabled).
func (sys *System) ITC() *itc.Controller { return sys.itc }

// itcActions implements itc.Actions against the running system.
type itcActions struct {
	sys *System
}

var _ itc.Actions = (*itcActions)(nil)

func (a *itcActions) sendGM(kind smiop.Kind, payload []byte) {
	env := &smiop.Envelope{Kind: kind, SrcDomain: itc.Identity, Payload: payload}
	a.sys.sendOrdered(itc.Identity, GMDomainName, [][]byte{env.Encode()}, nil)
}

// RequestRekey implements itc.Actions.
func (a *itcActions) RequestRekey(domain string) {
	req := &smiop.RekeyRequest{Domain: domain}
	a.sendGM(smiop.KindRekeyRequest, req.Encode())
}

// FileAccusation implements itc.Actions.
func (a *itcActions) FileAccusation(cr *smiop.ChangeRequest) bool {
	a.sendGM(smiop.KindChangeRequest, cr.Encode())
	return true
}

// StartRecovery implements itc.Actions: wipe the replica's volatile
// ordering state and rebuild it from its peers' checkpoint quorum (the
// clean-code-image restart of proactive recovery). The SRM queue window
// returns with the transferred state and Resynchronise replays only what
// the element had not yet delivered, so servant state stays consistent.
func (a *itcActions) StartRecovery(domain string, member int, done func()) bool {
	dr := a.sys.domains[domain]
	if dr == nil || member < 0 || member >= len(dr.Elements) {
		return false
	}
	el := dr.Elements[member]
	rep := el.srmEl.Replica
	if rep.Recovering() {
		return false
	}
	rep.OnRecovered = func(uint64) {
		rep.OnRecovered = nil
		el.Desynced = false
		done()
	}
	rep.Recover()
	return true
}

// Expelled implements itc.Actions against the Group Manager's view. All
// correct GM elements agree (expulsions ride the total order), so
// consulting element 0 is representative.
func (a *itcActions) Expelled(domain string, member int) bool {
	if len(a.sys.GMManagers) == 0 {
		return false
	}
	return a.sys.GMManagers[0].IsExpelled(domain, member)
}

// IsPrimary implements itc.Actions.
func (a *itcActions) IsPrimary(domain string, member int) bool {
	dr := a.sys.domains[domain]
	if dr == nil || member < 0 || member >= len(dr.Elements) {
		return false
	}
	rep := dr.Elements[member].srmEl.Replica
	return rep.Primary(rep.View()) == rep.ID()
}
