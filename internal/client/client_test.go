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
	return broadcast.NewChannel(broadcast.BuildIndex(tree, p, broadcast.IndexSpec{}), offset)
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
	if pf := r.DownloadIndexSlot(slot); pf != nil {
		t.Fatalf("lossless reception faulted: %v", pf)
	}
	if pg := ch.PageAt(slot); pg.Kind != broadcast.IndexPage || pg.NodeID != 0 {
		t.Fatalf("expected the root on air, got %+v", pg)
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
	r.DownloadIndexSlot(slot)
	defer func() {
		if recover() == nil {
			t.Error("downloading in the past should panic")
		}
	}()
	r.DownloadIndexSlot(slot) // clock has advanced past slot
}

func TestCollect(t *testing.T) {
	ch1 := testChannel(t, 30, 0)
	ch2 := testChannel(t, 50, 11)
	r1 := NewReceiver(ch1, 10)
	r2 := NewReceiver(ch2, 10)
	r1.DownloadIndexSlot(r1.NextRootArrival())
	r2.DownloadIndexSlot(r2.NextRootArrival())
	r2.DownloadIndexSlot(r2.NextNodeArrival(1))

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
	// Pops empty the queue in arrival order while At leaves it intact.
	var q ArrivalQueue
	for i := 0; i < 5; i++ {
		q.Push(Candidate{Arrival: int64(10 - i), Key: int32(i), Ent: int32(i)})
	}
	seen := map[int32]bool{}
	for i := range q.Len() {
		seen[q.At(i).Key] = true
	}
	if len(seen) != 5 || q.Len() != 5 {
		t.Fatal("At must reach every candidate without modifying the queue")
	}
	var drained []Candidate
	for q.Len() > 0 {
		drained = append(drained, q.Pop())
	}
	if len(drained) != 5 {
		t.Fatal("popping must empty the queue")
	}
	for i := 1; i < len(drained); i++ {
		if drained[i].Arrival < drained[i-1].Arrival {
			t.Fatal("pops not in arrival order")
		}
	}
}

// refQueue is the sort-based reference for ArrivalQueue: an unordered
// slice whose minimum by (Arrival, Key) is found by sorting at pop time.
type refQueue []Candidate

func (r *refQueue) pop() Candidate {
	sort.Slice(*r, func(i, j int) bool { return candLess((*r)[i], (*r)[j]) })
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

// TestArrivalQueueMatchesReference drives ArrivalQueue and the reference
// with the same random push/pop sequence, in the shape a search makes:
// a popped node's children pushed in reverse arrival order (the tail
// path), pushes out of order (the binary-search path), fault-style
// re-files of the popped candidate at a later arrival, and equal arrivals
// with different keys. Every pop must return the same candidate.
func TestArrivalQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var q ArrivalQueue
	var ref refQueue
	var tail, search int
	push := func(c Candidate) {
		if q.Len() == 0 || candLess(c, q.Peek()) {
			tail++
		} else {
			search++
		}
		q.Push(c)
		ref = append(ref, c)
	}
	key := int32(0)
	for step := range 3000 {
		now := int64(step)
		op := rng.Intn(10)
		if q.Len() > 100 {
			op = rng.Intn(5) // keep the queue tens of entries deep, as a search's
		}
		switch {
		case op < 3 && q.Len() > 0: // pop a node, file its children
			got, want := q.Pop(), ref.pop()
			if got != want {
				t.Fatalf("step %d: pop %+v, reference %+v", step, got, want)
			}
			now = got.Arrival
			n := 1 + rng.Intn(6)
			for i := n - 1; i >= 0; i-- {
				key++
				push(Candidate{Arrival: now + 1 + int64(i)*int64(1+rng.Intn(3)), Key: key, Ent: key})
			}
		case op < 5 && q.Len() > 0: // pop and re-file, as after a fault
			got, want := q.Pop(), ref.pop()
			if got != want {
				t.Fatalf("step %d: pop %+v, reference %+v", step, got, want)
			}
			got.Arrival += 1 + int64(rng.Intn(50))
			push(got)
		case op < 7: // equal arrival, different key
			key++
			a := now
			if q.Len() > 0 {
				a = q.At(rng.Intn(q.Len())).Arrival
			}
			push(Candidate{Arrival: a, Key: key, Ent: key})
		default: // anywhere in the queue
			key++
			push(Candidate{Arrival: now + int64(rng.Intn(200)), Key: key, Ent: key})
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d, reference %d", step, q.Len(), len(ref))
		}
	}
	for q.Len() > 0 {
		if got, want := q.Pop(), ref.pop(); got != want {
			t.Fatalf("drain: pop %+v, reference %+v", got, want)
		}
	}
	if tail == 0 || search == 0 {
		t.Fatalf("tail pushes %d, binary-search pushes %d: both paths must be hit", tail, search)
	}
}

// BenchmarkArrivalQueue measures the queue operations of one internal
// node visit. Under 24 queued candidates that arrive later, it pushes the
// node's 8 children in reverse entry order (tail appends, as on a
// preorder schedule), re-files the first popped child at a later arrival
// as a faulted reception does (binary search and memmove), and pops the
// children again.
func BenchmarkArrivalQueue(b *testing.B) {
	const base, fanout = 24, 8
	var q ArrivalQueue
	for i := range base {
		q.Push(Candidate{Arrival: 1<<40 + int64(7*i), Key: int32(i), Ent: int32(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := range b.N {
		now := int64(it) * 100
		for i := int32(fanout - 1); i >= 0; i-- {
			q.Push(Candidate{Arrival: now + 1 + int64(i), Key: base + i, Ent: base + i})
		}
		c := q.Pop()
		c.Arrival += 50
		q.Push(c)
		for range fanout {
			q.Pop()
		}
	}
	if q.Len() != base {
		b.Fatalf("queue holds %d candidates, want %d", q.Len(), base)
	}
}
