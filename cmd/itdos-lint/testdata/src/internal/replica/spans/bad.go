// Package spans holds fixtures for the span-leak check (scoped to the
// replica-stack packages; this directory sits under internal/replica).
package spans

import "fixture/internal/obs"

type endpoint struct {
	tr   *obs.Tracer
	busy bool
	last *obs.Span
}

func (ep *endpoint) leakOnReturn() int {
	sp := ep.tr.Start("invoke") // want:span-leak
	if ep.busy {
		return 1 // leaks the span on this path
	}
	sp.End()
	return 0
}

func (ep *endpoint) neverEnds() {
	sp := ep.tr.Start("orb.marshal") // want:span-leak
	sp.Annotate("op", "inc")
}

func (ep *endpoint) discardedStatement() {
	ep.tr.Start("smiop.seal") // want:span-leak
}

func (ep *endpoint) discardedBlank() {
	_ = ep.tr.StartDetached("srm.order") // want:span-leak
}

func (ep *endpoint) leakInClosure() func() {
	return func() {
		sp := ep.tr.Start("vote.decide") // want:span-leak
		if ep.busy {
			return
		}
		sp.End()
	}
}

func (ep *endpoint) suppressedHandOff() {
	//itdos:nolint span-leak -- fixture: suppression must silence this finding
	sp := ep.tr.StartDetached("srm.order")
	sp.Annotate("target", "gm")
}

// unmarshal is the keep-test row: smiop's Stream.Deliver with the
// smiop.unmarshal span ended after the error check instead of before it,
// so a copy that fails to unmarshal leaves the span open.
func (ep *endpoint) unmarshal() int {
	usp := ep.tr.Start("smiop.unmarshal") // want:span-leak
	if ep.busy {
		return 1
	}
	usp.End()
	return 0
}
