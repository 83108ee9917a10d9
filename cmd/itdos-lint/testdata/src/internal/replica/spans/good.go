package spans

import "fixture/internal/obs"

func (ep *endpoint) deferEnds() {
	sp := ep.tr.Start("invoke")
	defer sp.End()
	ep.busy = true
}

func (ep *endpoint) deferClosureEnds() {
	sp := ep.tr.Start("conn.establish")
	defer func() { sp.End() }()
	ep.busy = true
}

func (ep *endpoint) endsOnEveryPath() int {
	sp := ep.tr.Start("smiop.deliver")
	if ep.busy {
		sp.End()
		return 1
	}
	sp.Annotate("member", "2")
	sp.End()
	return 0
}

// escapesAsArgument transfers ownership: the async srm.order pattern hands
// the span to an ack handler that ends it later.
func (ep *endpoint) escapesAsArgument() {
	sp := ep.tr.StartDetached("srm.order")
	ep.hand(sp)
}

func (ep *endpoint) hand(sp *obs.Span) { ep.last = sp }

// escapesToField parks the current span across a coroutine handoff.
func (ep *endpoint) escapesToField() {
	ep.last = ep.tr.Start("gm.open_request")
}

// escapesByReturn hands the span to the caller.
func (ep *endpoint) escapesByReturn() *obs.Span {
	sp := ep.tr.Start("key.combine")
	return sp
}

// endedByClosure: the closure that ends the span owns it from here on.
func (ep *endpoint) endedByClosure() func() {
	sp := ep.tr.StartDetached("srm.order")
	return func() { sp.End() }
}

// reassigned: the variable is written again before the End, so which span
// the End closes is no longer a positional question; treated as handed on.
func (ep *endpoint) reassigned() {
	sp := ep.tr.Start("vote.collect")
	sp = ep.tr.Start("vote.decide")
	sp.End()
}
