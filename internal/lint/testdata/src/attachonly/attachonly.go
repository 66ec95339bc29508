// Package attachonly exercises the attachonly analyzer against the real
// sim-state types: an observer-grade package may read owned state and use
// the declared attach points (tap registration, suppressed but accounted),
// but calling a mutating method of an owned type, an unasserted method of
// an owned interface, or writing any owner-annotated field is a finding.
package attachonly

import (
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

type probe struct {
	ring  *trace.Ring
	clock simtime.EventCore
	last  trace.Event
	tapID int
}

// attach uses the sanctioned surface: attach points report suppressed (the
// accounting test checks that), read-only queries report nothing.
func (p *probe) attach() {
	p.tapID = p.ring.AddTap(p.onEvent)
	_ = p.ring.Total()
	_ = p.ring.Hash()
	_ = p.clock.Now()
	_ = p.clock.Dispatched()
}

func (p *probe) onEvent(ev trace.Event) { p.last = ev }

func (p *probe) detach() { p.ring.RemoveTap(p.tapID) }

// perturb is everything an observer must never do to the event core.
func (p *probe) perturb() {
	p.ring.Record(trace.Event{}) // want `observer calls mutating method Ring\.Record of an owned type`
	p.ring.Reset()               // want `observer calls mutating method Ring\.Reset of an owned type`
	p.clock.After(1, func() {})  // want `observer calls EventCore\.After: method of an owned interface not asserted //simlint:readonly`
	_ = p.clock.At(100, nil)     // want `observer calls EventCore\.At: method of an owned interface not asserted //simlint:readonly`
}

// stolen takes a mutating method value without calling it — the reference
// alone hands someone a mutation capability and is flagged the same way.
func (p *probe) stolen() func(trace.Event) {
	return p.ring.Record // want `observer calls mutating method Ring\.Record of an owned type`
}

// cache declares owner-annotated state inside an observer package; any
// write to it is a finding — observability layers hold no sim state.
//
//simlint:owner sim
type cache struct{ n int }

func fill(c *cache) {
	c.n++ // want `observer-grade package writes sim-owned field n; observability layers hold no sim state`
}
