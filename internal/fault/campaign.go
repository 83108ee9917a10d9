package fault

import (
	"itdos/internal/cdr"
	"itdos/internal/orb"
)

// This file holds the scripted-campaign injectors: adversaries that act
// over time rather than from the first call — the raw material of the
// C9–C11 campaign experiments. They are deterministic (counter-based, no
// randomness) so seeded campaign transcripts replay exactly.

// Switch is a runtime compromise handle: it wraps a clean servant and
// lets a campaign script compromise and later restore the replica at
// chosen points in virtual time. Restore models a restart from the clean
// code image — the adversary's in-memory foothold does not survive a
// proactive recovery, which is exactly what the recovery rotation buys.
type Switch struct {
	evil orb.Servant
}

// NewSwitch returns an armed-off compromise handle.
func NewSwitch() *Switch { return &Switch{} }

// Compromise makes every wrapped servant delegate to evil from now on.
func (s *Switch) Compromise(evil orb.Servant) { s.evil = evil }

// Restore returns every wrapped servant to its clean behaviour.
func (s *Switch) Restore() { s.evil = nil }

// Wrap returns a servant that follows the switch: clean while restored,
// the injected adversary while compromised.
func (s *Switch) Wrap(clean orb.Servant) orb.Servant {
	return orb.ServantFunc(func(ctx *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
		if s.evil != nil {
			return s.evil.Invoke(ctx, op, args)
		}
		return clean.Invoke(ctx, op, args)
	})
}

// IntermittentLyingServant answers correctly except on every period-th
// invocation (the period-th, 2·period-th, …), where it returns the given
// results instead — the "slow compromise" adversary that tries to stay
// under any detection threshold by spacing its lies out.
func IntermittentLyingServant(inner orb.Servant, period int, results ...cdr.Value) orb.Servant {
	if period < 1 {
		period = 1
	}
	calls := 0
	return orb.ServantFunc(func(ctx *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
		calls++
		if calls%period == 0 {
			return results, nil
		}
		return inner.Invoke(ctx, op, args)
	})
}
