package client

import (
	"testing"

	"tnnbcast/internal/broadcast"
)

// faultyAt wraps a channel in a FaultFeed and finds index-page slots with
// the wanted fault state, starting the scan at slot from.
func faultyAt(ff *broadcast.FaultFeed, from int64, wantFault bool) int64 {
	for t := from; ; t++ {
		if ff.PageAt(t).Kind != broadcast.IndexPage {
			continue
		}
		if (ff.Fault(t) != nil) == wantFault {
			return t
		}
	}
}

// TestReceiverFaultAccounting drives one complete fault episode by hand
// and checks every counter: a faulted reception burns tune-in and
// advances the clock but completes nothing; the recovering download
// closes the episode, crediting the faults as retries and the elapsed
// slots as recovery time.
func TestReceiverFaultAccounting(t *testing.T) {
	ch := testChannel(t, 60, 0)
	ff := broadcast.NewFaultFeed(ch, broadcast.FaultModel{Loss: 0.25, Seed: 6})
	r := NewReceiver(ff, 0)

	var traced []int64
	r.SetFaultTrace(func(slot int64) { traced = append(traced, slot) })

	// First faulted index slot: the download must fail, spend a page,
	// advance the clock, and leave access time untouched (nothing
	// completed yet).
	bad := faultyAt(ff, 0, true)
	r.WaitUntil(bad)
	if pf := r.DownloadIndexSlot(bad); pf == nil || pf.Slot != bad {
		t.Fatalf("DownloadIndexSlot(%d) = %v, want fault at that slot", bad, pf)
	}
	if r.Pages() != 1 || r.Lost() != 1 || r.Retries() != 0 || r.RecoverySlots() != 0 {
		t.Fatalf("after fault: pages=%d lost=%d retries=%d recovery=%d",
			r.Pages(), r.Lost(), r.Retries(), r.RecoverySlots())
	}
	if r.AccessTime() != 0 {
		t.Fatalf("faulted reception completed something: access=%d", r.AccessTime())
	}
	if r.Now() != bad+1 {
		t.Fatalf("clock %d, want %d", r.Now(), bad+1)
	}

	// A second fault in the same episode.
	bad2 := faultyAt(ff, r.Now(), true)
	r.WaitUntil(bad2)
	if pf := r.DownloadIndexSlot(bad2); pf == nil {
		t.Fatal("expected second fault")
	}
	if r.Lost() != 2 || r.Retries() != 0 {
		t.Fatalf("after second fault: lost=%d retries=%d", r.Lost(), r.Retries())
	}

	// The recovering clean download closes the episode: both faults
	// become retries, and recovery covers first-fault -> recovery slot.
	good := faultyAt(ff, r.Now(), false)
	r.WaitUntil(good)
	if pf := r.DownloadIndexSlot(good); pf != nil {
		t.Fatalf("clean slot %d faulted: %v", good, pf)
	}
	if r.Lost() != 2 || r.Retries() != 2 {
		t.Fatalf("after recovery: lost=%d retries=%d", r.Lost(), r.Retries())
	}
	if r.RecoverySlots() != good-bad {
		t.Fatalf("recovery=%d, want %d", r.RecoverySlots(), good-bad)
	}
	if r.Pages() != 3 {
		t.Fatalf("pages=%d, want 3 (two faulted + one clean)", r.Pages())
	}
	if r.AccessTime() != good+1 {
		t.Fatalf("access=%d, want %d", r.AccessTime(), good+1)
	}
	if len(traced) != 2 || traced[0] != bad || traced[1] != bad2 {
		t.Fatalf("fault trace %v, want [%d %d]", traced, bad, bad2)
	}

	// A later clean download opens no episode and adds no loss metrics.
	lost, retries, recovery := r.Lost(), r.Retries(), r.RecoverySlots()
	good2 := faultyAt(ff, r.Now(), false)
	r.WaitUntil(good2)
	if pf := r.DownloadIndexSlot(good2); pf != nil {
		t.Fatalf("clean slot %d faulted: %v", good2, pf)
	}
	if r.Lost() != lost || r.Retries() != retries || r.RecoverySlots() != recovery {
		t.Fatal("clean download outside an episode changed loss accounting")
	}
}

// TestDownloadObjectReliable: the retry loop must survive faulted
// attempts, account every burned page, and return the same object end a
// lossless receiver would eventually reach; with an exhausted budget it
// escalates to a ChannelError carrying the attempt count and last fault.
func TestDownloadObjectReliable(t *testing.T) {
	ch := testChannel(t, 60, 0)
	ff := broadcast.NewFaultFeed(ch, broadcast.FaultModel{Loss: 0.3, Seed: 17})

	// Find an object whose first broadcast attempt faults, so the retry
	// loop is actually exercised.
	obj := -1
	for id := 0; id < 60; id++ {
		probe := NewReceiver(ff, 0)
		if _, pf := probe.DownloadObject(id); pf != nil {
			obj = id
			break
		}
	}
	if obj < 0 {
		t.Fatal("no object faults on its first attempt at 30% loss")
	}

	r := NewReceiver(ff, 0)
	end, ce := r.DownloadObjectReliable(obj, 50)
	if ce != nil {
		t.Fatalf("reliable download escalated with a generous budget: %v", ce)
	}
	if r.Lost() == 0 || r.Retries() != r.Lost() || r.RecoverySlots() == 0 {
		t.Fatalf("retry accounting: lost=%d retries=%d recovery=%d",
			r.Lost(), r.Retries(), r.RecoverySlots())
	}
	if end != r.Now() || r.AccessTime() != end {
		t.Fatalf("end=%d now=%d access=%d", end, r.Now(), r.AccessTime())
	}
	// The object content position is schedule truth: a lossless receiver
	// starting at the recovered attempt's slot sees the same end.
	ppo := int64(ch.Index().PagesPerObject())
	if (end-ch.NextObjectArrival(obj, end-ppo))%ppo != 0 {
		t.Fatalf("end %d is not aligned to an object run", end)
	}

	// Budget exhaustion escalates with typed details.
	r2 := NewReceiver(ff, 0)
	if _, ce := r2.DownloadObjectReliable(obj, 1); ce == nil {
		t.Fatal("budget of 1 on a faulting object did not escalate")
	} else if ce.Attempts != 1 || ce.Last == nil {
		t.Fatalf("ChannelError = %+v, want Attempts=1 and a last fault", ce)
	}
}
