package client

import (
	"math/rand"
	"sort"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

func testChannel(t *testing.T, n int, offset int64) *broadcast.Channel {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + offset))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	p := broadcast.DefaultParams()
	tree := rtree.Build(pts, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
	return broadcast.NewChannel(broadcast.BuildProgram(tree, p), offset)
}

func TestReceiverAccounting(t *testing.T) {
	ch := testChannel(t, 40, 7)
	r := NewReceiver(ch, 100)

	if r.AccessTime() != 0 || r.Pages() != 0 {
		t.Fatal("fresh receiver should have zero metrics")
	}

	slot := r.NextRootArrival()
	if slot < 100 {
		t.Fatalf("root arrival %d before issue", slot)
	}
	n, _ := r.DownloadNode(slot)
	if n.ID != 0 {
		t.Fatalf("expected root, got node %d", n.ID)
	}
	if r.Pages() != 1 {
		t.Errorf("pages = %d", r.Pages())
	}
	if r.AccessTime() != slot-100+1 {
		t.Errorf("access time = %d, want %d", r.AccessTime(), slot-100+1)
	}
	if r.Now() != slot+1 {
		t.Errorf("clock = %d, want %d", r.Now(), slot+1)
	}
}

func TestReceiverDownloadObject(t *testing.T) {
	ch := testChannel(t, 40, 3)
	r := NewReceiver(ch, 0)
	ppo := int64(ch.Index().PagesPerObject())
	end, _ := r.DownloadObject(5)
	if r.Pages() != ppo {
		t.Errorf("pages = %d, want %d", r.Pages(), ppo)
	}
	if r.AccessTime() != end {
		t.Errorf("access time %d, want %d (end slot)", r.AccessTime(), end)
	}
	if r.Now() != end {
		t.Errorf("clock %d, want %d", r.Now(), end)
	}
}

func TestReceiverRejectsPastDownload(t *testing.T) {
	ch := testChannel(t, 40, 0)
	r := NewReceiver(ch, 50)
	slot := r.NextRootArrival()
	r.DownloadNode(slot)
	defer func() {
		if recover() == nil {
			t.Error("downloading in the past should panic")
		}
	}()
	r.DownloadNode(slot) // clock has advanced past slot
}

func TestCollect(t *testing.T) {
	ch1 := testChannel(t, 30, 0)
	ch2 := testChannel(t, 50, 11)
	r1 := NewReceiver(ch1, 10)
	r2 := NewReceiver(ch2, 10)
	r1.DownloadNode(r1.NextRootArrival())
	r2.DownloadNode(r2.NextRootArrival())
	r2.DownloadNode(r2.NextNodeArrival(1))

	m := Collect(r1, r2)
	if m.TuneIn != r1.Pages()+r2.Pages() {
		t.Errorf("TuneIn = %d, want sum %d", m.TuneIn, r1.Pages()+r2.Pages())
	}
	want := r1.AccessTime()
	if r2.AccessTime() > want {
		want = r2.AccessTime()
	}
	if m.AccessTime != want {
		t.Errorf("AccessTime = %d, want max %d", m.AccessTime, want)
	}
}

func TestArrivalQueueOrdering(t *testing.T) {
	var q ArrivalQueue
	arrivals := []int64{50, 3, 17, 99, 4, 120, 8, 61, 2, 33}
	for i := range arrivals {
		q.Push(Candidate{Arrival: arrivals[i], Key: int32(i), Ent: int32(i)})
	}
	if q.Len() != 10 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Peek().Arrival != 2 {
		t.Fatalf("peek arrival = %d, want 2", q.Peek().Arrival)
	}
	sorted := append([]int64(nil), arrivals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		got := q.Pop()
		if got.Arrival != want {
			t.Fatalf("pop %d: arrival %d, want %d", i, got.Arrival, want)
		}
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestArrivalQueueSnapshotDrain(t *testing.T) {
	var q ArrivalQueue
	for i := 0; i < 5; i++ {
		q.Push(Candidate{Arrival: int64(10 - i), Key: int32(i), Ent: int32(i)})
	}
	snap := q.Snapshot()
	if len(snap) != 5 || q.Len() != 5 {
		t.Fatal("snapshot must not modify the queue")
	}
	drained := q.Drain()
	if len(drained) != 5 || q.Len() != 0 {
		t.Fatal("drain must empty the queue")
	}
	for i := 1; i < len(drained); i++ {
		if drained[i].Arrival < drained[i-1].Arrival {
			t.Fatal("drain not in arrival order")
		}
	}
}
