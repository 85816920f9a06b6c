// Loopback differential goldens: every query answered over a live
// tnnserve socket must be METRIC-BIT-IDENTICAL to the same query against
// the in-process feeds. The broadcast schedule is a pure function of the
// spec, the issue slot pins the phase, and (for lossy runs) the fault
// pattern is a pure function of (seed, channel, slot) on both sides — so
// there is nothing legitimate for the network to change except wall-clock
// time. Any metric divergence is a transport bug.
package netfeed_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/netfeed"
)

// loopSlot is the slot pacing for loopback differential runs: long enough
// that WAKE round trips never race the pacer even under -race, short
// enough that a multi-cycle query finishes in seconds.
const loopSlot = 3 * time.Millisecond

var allAlgos = []tnnbcast.Algorithm{
	tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
}

// loopbackSpec builds a small paper-workload service spec.
func loopbackSpec(scheme broadcast.SchemeID, single bool) netfeed.Spec {
	p := broadcast.DefaultParams()
	p.DataSize = 128 // 2 pages per object: short cycles, fast loops
	return netfeed.Spec{
		Params: p,
		Scheme: scheme,
		Single: single,
		OffS:   17,
		OffR:   91,
		Region: tnnbcast.PaperRegion,
		S:      tnnbcast.UniformDataset(101, 100, tnnbcast.PaperRegion),
		R:      tnnbcast.UniformDataset(202, 100, tnnbcast.PaperRegion),
	}
}

// twinOptions translates a spec into the root options that build the
// identical in-process system.
func twinOptions(sp netfeed.Spec) []tnnbcast.Option {
	opts := []tnnbcast.Option{
		tnnbcast.WithRegion(sp.Region),
		tnnbcast.WithDataSize(sp.Params.DataSize),
		tnnbcast.WithPhases(sp.OffS, sp.OffR),
	}
	if sp.Scheme == broadcast.SchemeDistributed {
		opts = append(opts, tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex))
	}
	if sp.Single {
		opts = append(opts, tnnbcast.WithSingleChannel())
	}
	return opts
}

func startServer(t *testing.T, sp netfeed.Spec, faults broadcast.FaultModel) *netfeed.Server {
	t.Helper()
	srv, err := netfeed.NewServer(netfeed.ServerConfig{Spec: sp, SlotDur: loopSlot, Faults: faults})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// diffResult compares every metric field of two Results.
func diffResult(remote, local tnnbcast.Result) string {
	if remote.SID != local.SID || remote.RID != local.RID || remote.S != local.S ||
		remote.R != local.R || remote.Dist != local.Dist || remote.Found != local.Found {
		return fmt.Sprintf("answer differs: remote (%d,%d,%g,%v) local (%d,%d,%g,%v)",
			remote.SID, remote.RID, remote.Dist, remote.Found,
			local.SID, local.RID, local.Dist, local.Found)
	}
	if remote.AccessTime != local.AccessTime || remote.TuneIn != local.TuneIn ||
		remote.EstimateTuneIn != local.EstimateTuneIn || remote.FilterTuneIn != local.FilterTuneIn {
		return fmt.Sprintf("metrics differ: remote acc=%d tune=%d (%d+%d) local acc=%d tune=%d (%d+%d)",
			remote.AccessTime, remote.TuneIn, remote.EstimateTuneIn, remote.FilterTuneIn,
			local.AccessTime, local.TuneIn, local.EstimateTuneIn, local.FilterTuneIn)
	}
	if remote.Radius != local.Radius || remote.Case != local.Case {
		return fmt.Sprintf("phase state differs: remote r=%g case=%v local r=%g case=%v",
			remote.Radius, remote.Case, local.Radius, local.Case)
	}
	if remote.Lost != local.Lost || remote.Retries != local.Retries ||
		remote.RecoverySlots != local.RecoverySlots {
		return fmt.Sprintf("loss accounting differs: remote lost=%d retries=%d rec=%d local lost=%d retries=%d rec=%d",
			remote.Lost, remote.Retries, remote.RecoverySlots,
			local.Lost, local.Retries, local.RecoverySlots)
	}
	if (remote.Err == nil) != (local.Err == nil) {
		return fmt.Sprintf("error state differs: remote %v local %v", remote.Err, local.Err)
	}
	return ""
}

// TestLoopbackDifferentialClean drives all four algorithms over both index
// families against a live loss-free server and requires bit-identical
// metrics to the in-process Channel feeds, dedicated or multiplexed.
func TestLoopbackDifferentialClean(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback broadcast")
	}
	for _, tc := range []struct {
		name   string
		scheme broadcast.SchemeID
	}{
		{"preorder", broadcast.SchemePreorder},
		{"distributed", broadcast.SchemeDistributed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := loopbackSpec(tc.scheme, false)
			srv := startServer(t, sp, broadcast.FaultModel{})

			rs, err := tnnbcast.Connect(srv.Addr().String(), tnnbcast.WithReceiveGrace(5*time.Second))
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			defer rs.Close()

			twin, err := tnnbcast.New(sp.S, sp.R, twinOptions(sp)...)
			if err != nil {
				t.Fatalf("New twin: %v", err)
			}

			p := tnnbcast.Pt(19000, 21000)
			var wg sync.WaitGroup
			for _, algo := range allAlgos {
				wg.Add(1)
				go func(algo tnnbcast.Algorithm) {
					defer wg.Done()
					issue := rs.IssueSlot()
					remote := rs.Query(p, algo, tnnbcast.WithIssue(issue))
					local := twin.Query(p, algo, tnnbcast.WithIssue(issue))
					if d := diffResult(remote, local); d != "" {
						t.Errorf("%v @issue %d: %s", algo, issue, d)
					}
				}(algo)
			}
			wg.Wait()

			if err := rs.Err(); err != nil {
				t.Fatalf("connection degraded: %v", err)
			}
			st := rs.NetStats()
			if st.FramesRead == 0 {
				t.Fatal("no frames read: queries were not answered off the wire")
			}
			// UDP delivery: raw bytes must be exactly frames × frame size —
			// the client read nothing it did not tune in for.
			if st.BytesRead != st.FramesRead*int64(st.FrameSize) {
				t.Fatalf("bytes read %d != %d frames × %dB: client read outside its wake schedule",
					st.BytesRead, st.FramesRead, st.FrameSize)
			}
		})
	}
}

// TestLoopbackDifferentialTCP repeats the clean differential over the
// length-prefixed TCP frame fallback, with two connections querying the
// same issue slots concurrently: each sealed frame reaches both outboxes
// from one buffer, while replays of already-aired slots run beside the
// transmit loop. Every answer must be bit-identical to the in-process
// twin, and each client must have read exactly its frames, each behind
// its 4-byte length prefix.
func TestLoopbackDifferentialTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback broadcast")
	}
	sp := loopbackSpec(broadcast.SchemePreorder, false)
	srv := startServer(t, sp, broadcast.FaultModel{})

	var rss [2]*tnnbcast.RemoteSystem
	for i := range rss {
		rs, err := tnnbcast.Connect(srv.Addr().String(),
			tnnbcast.WithTCPFrames(), tnnbcast.WithReceiveGrace(5*time.Second))
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		defer rs.Close()
		rss[i] = rs
	}
	twin, err := tnnbcast.New(sp.S, sp.R, twinOptions(sp)...)
	if err != nil {
		t.Fatalf("New twin: %v", err)
	}
	p := tnnbcast.Pt(30000, 5000)
	var wg sync.WaitGroup
	for _, algo := range []tnnbcast.Algorithm{tnnbcast.Double, tnnbcast.Hybrid} {
		issue := rss[0].IssueSlot()
		local := twin.Query(p, algo, tnnbcast.WithIssue(issue))
		for i, rs := range rss {
			wg.Add(1)
			go func() {
				defer wg.Done()
				remote := rs.Query(p, algo, tnnbcast.WithIssue(issue))
				if d := diffResult(remote, local); d != "" {
					t.Errorf("%v over tcp, connection %d @issue %d: %s", algo, i, issue, d)
				}
			}()
		}
	}
	wg.Wait()
	for i, rs := range rss {
		if err := rs.Err(); err != nil {
			t.Fatalf("connection %d degraded: %v", i, err)
		}
		st := rs.NetStats()
		if st.FramesRead == 0 {
			t.Fatalf("connection %d read no frames", i)
		}
		if st.BytesRead != st.FramesRead*int64(st.FrameSize+4) {
			t.Errorf("connection %d: bytes read %d != %d frames × (%dB + 4B prefix)",
				i, st.BytesRead, st.FramesRead, st.FrameSize)
		}
	}
}

// TestLoopbackDifferentialSingleChannel covers the time-multiplexed
// combined cycle: one physical channel, both feeds.
func TestLoopbackDifferentialSingleChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback broadcast")
	}
	sp := loopbackSpec(broadcast.SchemePreorder, true)
	srv := startServer(t, sp, broadcast.FaultModel{})

	rs, err := tnnbcast.Connect(srv.Addr().String(), tnnbcast.WithReceiveGrace(5*time.Second))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer rs.Close()
	twin, err := tnnbcast.New(sp.S, sp.R, twinOptions(sp)...)
	if err != nil {
		t.Fatalf("New twin: %v", err)
	}
	p := tnnbcast.Pt(12000, 33000)
	issue := rs.IssueSlot()
	remote := rs.Query(p, tnnbcast.Double, tnnbcast.WithIssue(issue))
	local := twin.Query(p, tnnbcast.Double, tnnbcast.WithIssue(issue))
	if d := diffResult(remote, local); d != "" {
		t.Fatalf("single channel @issue %d: %s", issue, d)
	}
}

// TestLoopbackLossy puts real packet loss on the wire (the server's
// deterministic fault injection drops/damages transmissions) and holds the
// PR 6 resilience contract: answers identical to the lossless run, access
// time monotone, losses actually recovered. When no spurious timing faults
// occurred (the common case on loopback), the full loss accounting must be
// bit-identical to the in-process lossy twin as well.
func TestLoopbackLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback broadcast")
	}
	model := broadcast.FaultModel{Loss: 0.05, Corrupt: 0.01, Seed: 7}
	sp := loopbackSpec(broadcast.SchemePreorder, false)
	srv := startServer(t, sp, model)

	// Grace far below one cycle: a deadline miss must re-derive an arrival
	// that is still in the real-time future, or recovery itself times out.
	rs, err := tnnbcast.Connect(srv.Addr().String(), tnnbcast.WithReceiveGrace(100*time.Millisecond))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer rs.Close()

	clean, err := tnnbcast.New(sp.S, sp.R, twinOptions(sp)...)
	if err != nil {
		t.Fatalf("New clean twin: %v", err)
	}
	lossy, err := tnnbcast.New(sp.S, sp.R, append(twinOptions(sp),
		tnnbcast.WithFaults(tnnbcast.FaultModel{Loss: model.Loss, Corrupt: model.Corrupt, Seed: model.Seed}))...)
	if err != nil {
		t.Fatalf("New lossy twin: %v", err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var totalLost int64
	exact := 0
	runs := 0
	for _, algo := range allAlgos {
		wg.Add(1)
		go func(algo tnnbcast.Algorithm) {
			defer wg.Done()
			issue := rs.IssueSlot()
			remote := rs.Query(p0, algo, tnnbcast.WithIssue(issue))
			cleanRes := clean.Query(p0, algo, tnnbcast.WithIssue(issue))
			lossyRes := lossy.Query(p0, algo, tnnbcast.WithIssue(issue))
			mu.Lock()
			defer mu.Unlock()
			runs++
			totalLost += remote.Lost
			if remote.Err != nil {
				t.Errorf("%v: remote gave up: %v", algo, remote.Err)
				return
			}
			// PR 6 contract: loss never changes the answer…
			if remote.SID != cleanRes.SID || remote.RID != cleanRes.RID ||
				remote.Dist != cleanRes.Dist || remote.Found != cleanRes.Found {
				t.Errorf("%v: lossy answer differs from clean: (%d,%d) vs (%d,%d)",
					algo, remote.SID, remote.RID, cleanRes.SID, cleanRes.RID)
			}
			// …and only stretches the metrics.
			if remote.AccessTime < cleanRes.AccessTime || remote.TuneIn < cleanRes.TuneIn {
				t.Errorf("%v: lossy run faster than clean: acc %d < %d or tune %d < %d",
					algo, remote.AccessTime, cleanRes.AccessTime, remote.TuneIn, cleanRes.TuneIn)
			}
			if d := diffResult(remote, lossyRes); d == "" {
				exact++
			} else {
				// Spurious real-time faults (a frame outrunning its grace)
				// legitimately add losses on the wire; they may not REMOVE
				// any injected ones.
				if remote.Lost < lossyRes.Lost {
					t.Errorf("%v: wire lost %d < injected %d — injection not reproduced", algo, remote.Lost, lossyRes.Lost)
				}
				t.Logf("%v: wire run diverged from injected twin (timing faults): %s", algo, d)
			}
		}(algo)
	}
	wg.Wait()
	if totalLost == 0 {
		t.Error("5% loss + 1% corruption injected but no query observed a fault")
	}
	t.Logf("lossy differential: %d/%d runs bit-identical to the injected twin, %d faults observed",
		exact, runs, totalLost)
}

var p0 = tnnbcast.Pt(19500, 20500)

// TestLoopbackSessionBatch runs the shared-cycle session engine over the
// wire: a batch of clients with staggered issue slots must produce
// bit-identical per-client results to the in-process engine, with the
// default worker count and with two. A later client asks for slots an
// earlier one has already passed; the server replays them.
func TestLoopbackSessionBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback broadcast")
	}
	sp := loopbackSpec(broadcast.SchemePreorder, false)
	srv := startServer(t, sp, broadcast.FaultModel{})

	rs, err := tnnbcast.Connect(srv.Addr().String(), tnnbcast.WithReceiveGrace(5*time.Second))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer rs.Close()
	twin, err := tnnbcast.New(sp.S, sp.R, twinOptions(sp)...)
	if err != nil {
		t.Fatalf("New twin: %v", err)
	}

	base := rs.IssueSlot()
	var queries []tnnbcast.Request
	for i := 0; i < 6; i++ {
		queries = append(queries, tnnbcast.Request{
			Point:   tnnbcast.Pt(float64(5000+6000*i), float64(36000-5500*i)),
			Algo:    allAlgos[i%len(allAlgos)],
			Options: []tnnbcast.QueryOption{tnnbcast.WithIssue(base + int64(i*7))},
		})
	}
	local, err := twin.QueryBatch(queries)
	if err != nil {
		t.Fatalf("twin QueryBatch: %v", err)
	}
	for _, workers := range []int{0, 2} { // 0: the GOMAXPROCS default
		remote, err := rs.QueryBatch(queries, tnnbcast.WithBatchWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: QueryBatch: %v", workers, err)
		}
		for i := range queries {
			if d := diffResult(remote[i].Result, local[i].Result); d != "" {
				t.Errorf("workers=%d client %d (%v): %s", workers, i, queries[i].Algo, d)
			}
		}
	}
}

// TestLoopbackEntryPoints runs every query variant through every entry
// point of a RemoteSystem — Do, Start, QueryBatch, QueryUnordered and
// QueryRoundTrip — without WithIssue, so each issues at the live slot.
// Answers do not depend on the issue slot, so every one must be error-free
// and equal the in-process twin's answer pairs.
func TestLoopbackEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback broadcast")
	}
	sp := loopbackSpec(broadcast.SchemePreorder, false)
	srv := startServer(t, sp, broadcast.FaultModel{})

	rs, err := tnnbcast.Connect(srv.Addr().String(), tnnbcast.WithReceiveGrace(5*time.Second))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer rs.Close()
	twin, err := tnnbcast.New(sp.S, sp.R, twinOptions(sp)...)
	if err != nil {
		t.Fatalf("New twin: %v", err)
	}

	reqs := []tnnbcast.Request{
		{Point: p0, Algo: tnnbcast.Hybrid},
		{Point: p0, Variant: tnnbcast.Unordered},
		{Point: p0, Variant: tnnbcast.RoundTrip},
		{Point: p0, Variant: tnnbcast.TopK, K: 3},
	}
	want := make([]tnnbcast.Response, len(reqs))
	for i, req := range reqs {
		if want[i], err = twin.Do(req); err != nil {
			t.Fatalf("twin Do: %v", err)
		}
	}
	check := func(entry string, i int, got tnnbcast.Response) {
		t.Helper()
		if d := diffAnswer(got, want[i]); d != "" {
			t.Errorf("%s %v: %s", entry, reqs[i].Variant, d)
		}
	}
	// The entry points run concurrently, as independent clients of one
	// connection, to keep the real-time wait short.
	var wg sync.WaitGroup
	goCheck := func(entry string, i int, answer func() (tnnbcast.Response, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := answer()
			if err != nil {
				t.Errorf("%s %v: %v", entry, reqs[i].Variant, err)
				return
			}
			check(entry, i, resp)
		}()
	}
	for i, req := range reqs {
		goCheck("Do", i, func() (tnnbcast.Response, error) { return rs.Do(req) })
		goCheck("Start", i, func() (tnnbcast.Response, error) {
			cur, err := rs.Start(req)
			if err != nil {
				return tnnbcast.Response{}, err
			}
			for !cur.Done() {
				cur.Step()
			}
			return cur.Response(), nil
		})
	}
	goCheck("QueryUnordered", 1, func() (tnnbcast.Response, error) {
		res, sFirst := rs.QueryUnordered(p0)
		return tnnbcast.Response{Result: res, SFirst: sFirst}, nil
	})
	goCheck("QueryRoundTrip", 2, func() (tnnbcast.Response, error) {
		return tnnbcast.Response{Result: rs.QueryRoundTrip(p0)}, nil
	})
	batch, err := rs.QueryBatch(reqs)
	wg.Wait()
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	for i, resp := range batch {
		check("QueryBatch", i, resp)
	}
}

// diffAnswer compares the answers of two Responses — pairs, distances and
// SFirst, not metrics — and requires the remote one to be error-free.
func diffAnswer(remote, local tnnbcast.Response) string {
	r, l := remote.Result, local.Result
	if r.Err != nil || remote.TopK.Err != nil {
		return fmt.Sprintf("query error: %v %v", r.Err, remote.TopK.Err)
	}
	if r.SID != l.SID || r.RID != l.RID || r.S != l.S || r.R != l.R || r.Dist != l.Dist ||
		r.Found != l.Found || remote.SFirst != local.SFirst {
		return fmt.Sprintf("answer differs: remote (%d,%d,%g,%v,%v) local (%d,%d,%g,%v,%v)",
			r.SID, r.RID, r.Dist, r.Found, remote.SFirst, l.SID, l.RID, l.Dist, l.Found, local.SFirst)
	}
	if remote.TopK.Found != local.TopK.Found || fmt.Sprint(remote.TopK.Pairs) != fmt.Sprint(local.TopK.Pairs) {
		return fmt.Sprintf("top-k answer differs: remote %v local %v", remote.TopK.Pairs, local.TopK.Pairs)
	}
	return ""
}

// TestConnectErrors covers the connect-time error family.
func TestConnectErrors(t *testing.T) {
	_, err := tnnbcast.Connect("127.0.0.1:1")
	var ce *tnnbcast.ConnectError
	if !errors.As(err, &ce) {
		t.Fatalf("unreachable connect: got %T %v, want *ConnectError", err, err)
	}
	if ce.Addr != "127.0.0.1:1" || ce.Unwrap() == nil {
		t.Fatalf("ConnectError not populated: %+v", ce)
	}
}
