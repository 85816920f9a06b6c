// Package client simulates the mobile client of the paper's system model:
// a location-aware device that tunes into one or more broadcast channels,
// downloads pages, dozes between scheduled arrivals, and accounts the two
// performance metrics — access time and tune-in time, both in pages.
//
// The package provides the mechanics every TNN algorithm shares: a
// per-channel Receiver with doze/wake accounting and an arrival-time-
// ordered candidate queue (the paper's MBR_queue — ordering by arrival
// instead of distance avoids backtracking on the linear medium). The
// query executors in core step ONE client's searches in global broadcast
// order, which is what "simultaneously accessing multiple channels" means
// operationally. Separate clients share nothing but the broadcast, so
// nothing orders them against each other: the session engine runs each
// client's query to completion on its own.
//
//tnn:deterministic
package client

import (
	"fmt"

	"tnnbcast/internal/broadcast"
)

// Receiver is the client's interface to one broadcast channel. It tracks
// the local clock (the next slot at which the radio is free), the number of
// pages downloaded (tune-in time), and the completion slot of the last
// download (per-channel access time).
type Receiver struct {
	ch    broadcast.Feed
	issue int64 // slot at which the query was issued
	now   int64 // next slot the receiver may tune into
	pages int64 // pages tuned into so far (clean and faulted receptions)
	last  int64 // slot of the last completed download; issue-1 when none
	trace func(slot int64, page broadcast.Page)

	// Loss accounting. A fault "episode" runs from the first faulted
	// reception until the next successful download on this channel;
	// recovery slots measure how much of the access time is loss-induced.
	lost       int64 // receptions that faulted (lost or corrupt pages)
	retries    int64 // faulted receptions that were later retried successfully
	recovery   int64 // slots between each episode's first fault and its closing download
	epFaults   int64 // faults in the open episode
	inFault    bool  // an episode is open
	faultAt    int64 // slot of the open episode's first fault
	traceFault func(slot int64)
}

// SetTrace installs a callback invoked once per downloaded page, for
// page-level query traces (cmd/tnnquery). A nil callback disables tracing.
// Faulted receptions do not fire it — see SetFaultTrace.
func (r *Receiver) SetTrace(fn func(slot int64, page broadcast.Page)) {
	r.trace = fn
}

// SetFaultTrace installs a callback invoked once per faulted reception.
// A nil callback disables it.
func (r *Receiver) SetFaultTrace(fn func(slot int64)) {
	r.traceFault = fn
}

// NewReceiver creates a receiver for a broadcast feed (a broadcast.Channel,
// dedicated or one dataset's share of a multiplexed channel, or a wrapper
// of one) with the query issued at slot issue. The receiver may tune in from slot issue onward.
func NewReceiver(ch broadcast.Feed, issue int64) *Receiver {
	return &Receiver{ch: ch, issue: issue, now: issue, last: issue - 1}
}

// Reset reinitializes the receiver in place for a new query, equivalent to
// NewReceiver but reusing the allocation. Any installed trace is removed.
func (r *Receiver) Reset(ch broadcast.Feed, issue int64) {
	*r = Receiver{ch: ch, issue: issue, now: issue, last: issue - 1}
}

// Channel returns the underlying broadcast feed.
func (r *Receiver) Channel() broadcast.Feed { return r.ch }

// Now returns the receiver's local clock: the earliest slot at which the
// next download may start.
func (r *Receiver) Now() int64 { return r.now }

// Pages returns the tune-in time accumulated on this channel, in pages.
func (r *Receiver) Pages() int64 { return r.pages }

// AccessTime returns this channel's access time: slots elapsed from query
// issue to the end of the last downloaded page. Zero when nothing was
// downloaded.
func (r *Receiver) AccessTime() int64 {
	if r.last < r.issue {
		return 0
	}
	return r.last - r.issue + 1
}

// WaitUntil dozes until slot t: the local clock advances to t if it is
// earlier. Used to synchronize phase boundaries across channels (the filter
// phase cannot start before the estimate phase has finished on both).
//
//tnn:noalloc
func (r *Receiver) WaitUntil(t int64) {
	if t > r.now {
		r.now = t
	}
}

// NextNodeArrival returns the earliest slot >= the local clock at which
// index page nodeID is on air.
//
//tnn:noalloc
func (r *Receiver) NextNodeArrival(nodeID int) int64 {
	return r.ch.NextNodeArrival(nodeID, r.now)
}

// NextRootArrival returns the earliest slot >= the local clock carrying the
// index root.
//
//tnn:noalloc
func (r *Receiver) NextRootArrival() int64 {
	return r.ch.NextRootArrival(r.now)
}

// fault accounts one faulted reception at slot: the radio was on (tune-in
// is spent), nothing was completed (last stands), and the clock moves past
// the dead slot so the caller can re-derive the page's next arrival.
//
//tnn:noalloc
func (r *Receiver) fault(slot int64) {
	r.pages++
	r.lost++
	r.epFaults++
	if !r.inFault {
		r.inFault, r.faultAt = true, slot
	}
	r.now = slot + 1
	if r.traceFault != nil {
		r.traceFault(slot)
	}
}

// closeEpisode settles an open fault episode at a successful download
// starting at slot: every fault in it counts as a retried reception, and
// the slots between the first fault and the recovering download are the
// loss-induced share of the access time.
//
//tnn:noalloc
func (r *Receiver) closeEpisode(slot int64) {
	if !r.inFault {
		return
	}
	r.recovery += slot - r.faultAt
	r.retries += r.epFaults
	r.inFault, r.epFaults = false, 0
}

// downloadBeforeClock formats the contract-violation panic message for
// DownloadIndexSlot. It lives outside the marked function so the cold
// panic path's formatting does not count against the hot path's zero-alloc
// budget.
func downloadBeforeClock(slot, now int64) string {
	return fmt.Sprintf("client: download at slot %d before local clock %d", slot, now)
}

// DownloadIndexSlot dozes until slot (which must be >= the local clock)
// and receives the index page on air there. The caller computed slot as
// the next arrival of an index page whose preorder ID it already knows (a
// queued candidate's key, or 0 for the root), so the page content adds
// nothing and is not materialized — only the reception itself is
// performed. A clean reception returns nil; on a lossy feed the slot may
// instead return the PageFault that ate it — tune-in is spent either way,
// and the caller is expected to re-derive the page's next arrival and
// retry. Faults are consulted fresh per reception.
//
//tnn:noalloc
func (r *Receiver) DownloadIndexSlot(slot int64) *broadcast.PageFault {
	if slot < r.now {
		panic(downloadBeforeClock(slot, r.now))
	}
	if pf := r.ch.Fault(slot); pf != nil {
		r.fault(slot)
		return pf
	}
	r.pages++
	r.last = slot
	r.now = slot + 1
	r.closeEpisode(slot)
	if r.trace != nil {
		r.trace(slot, r.ch.PageAt(slot))
	}
	return nil
}

// DownloadObject dozes until the next broadcast of objectID's data pages
// and downloads the full object (PagesPerObject consecutive pages). On a
// clean run it returns the slot after the download completes. A fault on
// any page of the run aborts the attempt at the faulted page: the pages
// tuned so far (clean prefix plus the dead page) are accounted, the object
// is incomplete (last stands), and the fault is returned for the caller to
// retry at the object's next broadcast.
//
//tnn:noalloc
func (r *Receiver) DownloadObject(objectID int) (int64, *broadcast.PageFault) {
	start := r.ch.NextObjectArrival(objectID, r.now)
	ppo := int64(r.ch.Index().PagesPerObject())
	for k := int64(0); k < ppo; k++ {
		if pf := r.ch.Fault(start + k); pf != nil {
			r.fault(start + k)
			return 0, pf
		}
		r.pages++
		if r.trace != nil {
			r.trace(start+k, r.ch.PageAt(start+k))
		}
	}
	r.last = start + ppo - 1
	r.now = start + ppo
	r.closeEpisode(start)
	return r.now, nil
}

// DownloadObjectReliable retries DownloadObject at the object's successive
// broadcasts until a full clean run is received. After maxRetries
// consecutive faulted attempts it escalates to a ChannelError (the Channel
// field is left for the caller to tag). On a lossless feed it is exactly
// one DownloadObject call.
func (r *Receiver) DownloadObjectReliable(objectID, maxRetries int) (int64, *broadcast.ChannelError) {
	attempts := 0
	for {
		end, pf := r.DownloadObject(objectID)
		if pf == nil {
			return end, nil
		}
		attempts++
		if attempts >= maxRetries {
			return 0, &broadcast.ChannelError{Attempts: attempts, Last: pf}
		}
	}
}

// Lost returns the number of faulted receptions on this channel.
func (r *Receiver) Lost() int64 { return r.lost }

// Retries returns the faulted receptions that a later successful download
// recovered from.
func (r *Receiver) Retries() int64 { return r.retries }

// RecoverySlots returns the total slots spent inside closed fault
// episodes — the loss-induced share of this channel's access time.
func (r *Receiver) RecoverySlots() int64 { return r.recovery }

// Metrics are the paper's two performance measures for one query, plus the
// loss accounting of the resilience layer (all zero on a perfect channel).
type Metrics struct {
	// AccessTime is the elapsed time from query issue until the query is
	// satisfied: the larger of the per-channel access times (Section 6).
	AccessTime int64
	// TuneIn is the total number of pages tuned into across all channels —
	// the energy-consumption proxy. Faulted receptions count: the radio
	// was on for them.
	TuneIn int64
	// Lost is the number of receptions that faulted (lost or corrupt
	// pages) across all channels.
	Lost int64
	// Retries is the number of faulted receptions that were recovered by
	// a later successful download.
	Retries int64
	// RecoverySlots is the total slots spent between a first fault and
	// the download that recovered from it, summed over all fault
	// episodes and channels — the loss-induced share of the latency.
	RecoverySlots int64
}

// Collect combines per-channel receiver statistics into query metrics.
func Collect(rs ...*Receiver) Metrics {
	var m Metrics
	for _, r := range rs {
		if at := r.AccessTime(); at > m.AccessTime {
			m.AccessTime = at
		}
		m.TuneIn += r.Pages()
		m.Lost += r.lost
		m.Retries += r.retries
		m.RecoverySlots += r.recovery
	}
	return m
}
