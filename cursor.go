package tnnbcast

// Streaming query execution. Start opens a Cursor over one Request, of
// any variant: the caller steps the execution action by action
// (Peek/Step/Done/Response) or ranges over its typed event stream
// (Events). This promotes the
// page-level observability the paper's energy model needs — which pages a
// client downloads, when it dozes, when each phase begins — from an
// internal trace hook into a first-class API, and it supports mid-flight
// stopping: breaking out of Events (e.g. on a slot budget) leaves the
// cursor intact, so the caller can inspect state and resume or abandon.
//
// The event stream of one query, in order:
//
//	PhaseStart{estimate}            unless the algorithm skips the phase
//	PageDownloaded ...              the estimate-phase downloads
//	RadiusSet                       the radius the estimate determined
//	PhaseStart{filter}
//	PageDownloaded ...              range queries + answer retrieval
//	Answer                          the final Response
//
// PhaseStart and RadiusSet come from the built-in executors' state
// machine, which also runs the Section-7 variants; a custom algorithm's
// stream carries PageDownloaded and Answer (plus whatever its built-in
// sub-executions report via their pages). The PageDownloaded count
// equals the answer's tune-in for every built-in and variant, and for a
// transitive query the pages before/after PhaseStart{filter} equal the
// estimate/filter tune-in split.

import (
	"iter"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
)

// Phase is the coarse position of a query execution, the granularity of
// the estimate/filter tune-in split.
type Phase int

const (
	// PhaseEstimate covers the NN searches that determine the search
	// radius (both of Window-Based's sequential searches; skipped
	// entirely by Approximate-TNN).
	PhaseEstimate Phase = Phase(core.PhaseEstimate)
	// PhaseFilter covers the circular range queries, the local join, and
	// the answer-object retrieval.
	PhaseFilter Phase = Phase(core.PhaseFilter)
)

func (p Phase) String() string { return core.Phase(p).String() }

// PageKind discriminates the two broadcast page types.
type PageKind int

const (
	// PageIndex is an index page carrying one R-tree node.
	PageIndex PageKind = PageKind(broadcast.IndexPage)
	// PageData is a data page carrying a fragment of one object.
	PageData PageKind = PageKind(broadcast.DataPage)
)

func (k PageKind) String() string { return broadcast.PageKind(k).String() }

// Event is one streamed observation of a query execution. The concrete
// types are PhaseStart, PageDownloaded, PageLost, RadiusSet, and Answer.
type Event interface{ isEvent() }

// PhaseStart marks the execution entering a phase at the given slot (the
// later of the two channels' local clocks).
type PhaseStart struct {
	Phase Phase
	Slot  int64
}

// PageDownloaded reports one page downloaded from one channel — the unit
// of tune-in time, and the wake intervals of a doze/wake NIC schedule.
type PageDownloaded struct {
	// Channel tags the channel: "S" or "R".
	Channel string
	// Slot is the broadcast slot the page occupied.
	Slot int64
	// Kind is the page type.
	Kind PageKind
	// NodeID is the R-tree node a PageIndex page carries.
	NodeID int
	// ObjectID and Seq identify the object fragment a PageData page
	// carries.
	ObjectID int
	Seq      int
}

// PageLost reports one faulted reception under WithFaults: the page at
// Slot was lost on air or downloaded and discarded on a checksum failure.
// The execution recovers by waiting for the page's next broadcast; the
// recovery downloads appear as ordinary PageDownloaded events. On a
// lossless system the event never fires, preserving the
// PageDownloaded == TuneIn invariant; under faults TuneIn additionally
// counts the discarded (corrupt) and missed receptions, i.e. one per
// PageLost.
type PageLost struct {
	// Channel tags the channel: "S" or "R".
	Channel string
	// Slot is the broadcast slot whose page failed.
	Slot int64
}

// RadiusSet reports the search-range radius the estimate phase
// determined, at the slot the filter phase may begin.
type RadiusSet struct {
	Radius float64
	Slot   int64
}

// Answer carries the final Response; it is always the last event.
type Answer struct {
	Response Response
}

func (PhaseStart) isEvent()     {}
func (PageDownloaded) isEvent() {}
func (PageLost) isEvent()       {}
func (RadiusSet) isEvent()      {}
func (Answer) isEvent()         {}

// Cursor is one TNN query execution under caller control. It is not safe
// for concurrent use; distinct cursors are independent.
type Cursor struct {
	sys     *System
	variant Variant
	ex      core.Executor
	qe      *core.QueryExec // non-nil for built-ins: phase/radius observability
	pending []Event
	drained int
	phase   core.Phase
	radius  bool
	done    bool
}

// Start opens a streaming execution of one Request. It validates and
// applies options like Do, and the execution performs no broadcast action
// until the first Step (or Events iteration). A Cursor owns its scratch
// state for its whole lifetime, so any number may be live concurrently.
func (sys *System) Start(req Request) (*Cursor, error) {
	o, err := sys.prepare(req)
	if err != nil {
		return nil, err
	}
	o.Scratch = core.NewScratch()
	c := &Cursor{sys: sys, variant: req.Variant, phase: -1}
	o.Trace = func(ch string, slot int64, pg broadcast.Page) {
		c.pending = append(c.pending, PageDownloaded{
			Channel: ch, Slot: slot, Kind: PageKind(pg.Kind),
			NodeID: pg.NodeID, ObjectID: pg.ObjectID, Seq: pg.Seq,
		})
	}
	o.TraceFault = func(ch string, slot int64) {
		c.pending = append(c.pending, PageLost{Channel: ch, Slot: slot})
	}
	// prepare validated the algorithm.
	c.ex, _ = core.Exec(new(core.QueryExec), sys.env, core.Algo(req.Algo),
		core.Variant(req.Variant), req.K, req.Point, o)
	c.qe, _ = c.ex.(*core.QueryExec)
	c.observe()
	return c, nil
}

// Peek returns the next broadcast slot at which the execution wants to
// act; done reports completion.
func (c *Cursor) Peek() (slot int64, done bool) { return c.ex.Peek() }

// Step performs exactly one action — download or prune one candidate, or
// the terminal join — and queues the events it produced. Step on a
// finished cursor is a no-op.
func (c *Cursor) Step() {
	if c.ex.Done() {
		return
	}
	c.ex.Step()
	c.observe()
}

// Done reports whether the execution has produced its final Response.
func (c *Cursor) Done() bool { return c.ex.Done() }

// Response returns the query outcome in the shape Do returns; valid once
// Done.
func (c *Cursor) Response() Response { return c.sys.respond(c.variant, c.ex.Result()) }

// Events returns an iterator that advances the execution and yields its
// events in order, ending after Answer. Breaking out of the range stops
// the query mid-flight with the cursor intact: already-queued events are
// retained, and a later Events (or Step) call resumes exactly where the
// consumer left off.
func (c *Cursor) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for {
			for c.drained < len(c.pending) {
				e := c.pending[c.drained]
				c.drained++
				if c.drained == len(c.pending) {
					c.pending, c.drained = c.pending[:0], 0
				}
				if !yield(e) {
					return
				}
			}
			if c.ex.Done() {
				return
			}
			c.ex.Step()
			c.observe()
		}
	}
}

// observe translates executor state changes since the last call into
// events: phase transitions and the radius from the built-in state
// machine, and the terminal Answer for every executor.
func (c *Cursor) observe() {
	if c.qe != nil {
		// The radius is reported when the filter phase opens; a query that
		// failed during its estimate (empty dataset) never determined one.
		if r, ok := c.qe.Radius(); ok && !c.radius && c.qe.Phase() != core.PhaseDone {
			c.radius = true
			c.pending = append(c.pending, RadiusSet{Radius: r, Slot: c.qe.Now()})
		}
		if ph := c.qe.Phase(); ph != c.phase {
			c.phase = ph
			if ph != core.PhaseDone {
				c.pending = append(c.pending, PhaseStart{Phase: Phase(ph), Slot: c.qe.Now()})
			}
		}
	}
	if c.ex.Done() && !c.done {
		c.done = true
		c.pending = append(c.pending, Answer{Response: c.Response()})
	}
}
