package tnnbcast

// Variant digest: every field of every answer of the paper's four
// algorithms and of the Section-7 queries (unordered, round trip, top-k,
// chain), folded into one FNV-1a word per algorithm or variant over a small but exhaustive configuration grid — index scheme ×
// dedicated or shared physical channels × loss level × ANN × answer
// retrieval × uniform or tie-heavy data. The constants pin the answers
// and the page accounting bit for bit; a change to any of them means a
// variant's traversal, tie-breaking or accounting changed. Update them
// deliberately, never to make a failing build pass. The two-dataset
// queries run through every public entry point — Do, a Cursor stepped to
// done, and QueryBatch at one and four workers — and each must reproduce
// the same words.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/experiments"
)

var variantDigests = map[string]uint64{
	"window":    0xed39f6be1d3c17f0,
	"double":    0xd47e1bdbc07af9e5,
	"hybrid":    0x0e372c7c7207e83b,
	"approx":    0xd6de602b7f4edac6,
	"unordered": 0xb80ae16d42ac0ab4,
	"roundtrip": 0xe44042e12c058d48,
	"topk1":     0x1d59a976987c7c2e,
	"topk3":     0xd8bd0b2b3016fffe,
	"topk10":    0xd0cdeacfe3a2340e,
	"chain2":    0xbd142c357fa4c400,
	"chain3":    0x4609efcb9e985158,
	"chain4":    0x7758b876f4d2e134,
}

// digestAlgos are the paper's four algorithms and their digest words.
var digestAlgos = []struct {
	name string
	algo Algorithm
}{{"window", Window}, {"double", Double}, {"hybrid", Hybrid}, {"approx", Approximate}}

// digestRegion is the square every digest dataset lives in.
var digestRegion = Rect{Lo: Pt(0, 0), Hi: Pt(1000, 1000)}

// gridDataset draws n points from a 21×21 lattice of pitch 50 with
// replacement, so coincident points and equal distances are common.
func gridDataset(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(float64(rng.Intn(21))*50, float64(rng.Intn(21))*50)
	}
	return pts
}

// digestData is one family of four datasets (chains use a prefix; the
// two-dataset queries use the first two) and its query points.
type digestData struct {
	name    string
	sets    [4][]Point
	queries []Point
}

func digestFamilies() []digestData {
	uni := digestData{name: "uniform"}
	for i := range uni.sets {
		uni.sets[i] = UniformDataset(int64(701+i), 180+40*i, digestRegion)
	}
	uni.queries = UniformDataset(799, 5, digestRegion)

	rng := rand.New(rand.NewSource(802))
	grid := digestData{name: "grid"}
	for i := range grid.sets {
		grid.sets[i] = gridDataset(rng, 120+30*i)
	}
	// Lattice and half-lattice query points: equidistant candidates.
	grid.queries = []Point{Pt(500, 500), Pt(525, 475), Pt(0, 0), Pt(975, 25), Pt(250, 750)}
	return []digestData{uni, grid}
}

// digestLoss is one loss level of the grid. retries > 0 sets
// WithMaxRetries so that some queries escalate.
type digestLoss struct {
	name    string
	model   FaultModel
	retries int
}

var digestLosses = []digestLoss{
	{name: "lossless"},
	{name: "1%/8", model: FaultModel{Loss: 0.01, Burst: 8, Seed: 41}},
	{name: "30%/4", model: FaultModel{Loss: 0.3, Burst: 4, Seed: 43}, retries: 3},
}

// shareChain re-broadcasts a chain's datasets two per physical channel —
// a multiplexed channel for each pair, a dedicated one for an odd last —
// with both halves of a physical channel under one fault pattern, as
// WithSingleChannel does for a System. cs must be lossless.
func shareChain(cs *ChainSystem, off int64, fm broadcast.FaultModel) {
	chs := cs.env.Chs
	out := make([]broadcast.Feed, 0, len(chs))
	for i := 0; i < len(chs); i += 2 {
		var feeds []broadcast.Feed
		if i+1 < len(chs) {
			s, r := broadcast.Multiplex(chs[i].Index(), chs[i+1].Index(), off)
			feeds = []broadcast.Feed{s, r}
		} else {
			feeds = []broadcast.Feed{broadcast.NewChannel(chs[i].Index(), off)}
		}
		for _, f := range feeds {
			if fm.Enabled() {
				f = broadcast.NewFaultFeed(f, fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, uint64(i/2))))
			}
			out = append(out, f)
		}
	}
	cs.env.Chs = out
}

// digest accumulates the per-variant folds and the outcome counts that
// prove the grid exercises loss and escalation.
type digest struct {
	t         *testing.T
	sums      map[string]uint64
	lost, err int
}

func (d *digest) fold(variant string, words ...uint64) {
	h, ok := d.sums[variant]
	if !ok {
		h = experiments.FNVOffset
	}
	d.sums[variant] = experiments.FoldWords(h, words)
}

func bits(f float64) uint64 { return math.Float64bits(f) }

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// errWords folds a query error into words: the dead channel's name, the
// attempts, and the last fault's slot and kind. Zero words mean no error.
func (d *digest) errWords(err error) []uint64 {
	if err == nil {
		return []uint64{0, 0, 0, 0}
	}
	d.err++
	var cerr *ChannelError
	if !errors.As(err, &cerr) {
		d.t.Fatalf("untyped query error %v", err)
	}
	name := experiments.FNVOffset
	for _, c := range []byte(cerr.Channel) {
		name = experiments.FoldWords(name, []uint64{uint64(c)})
	}
	var slot, corrupt uint64
	if cerr.Fault != nil {
		slot, corrupt = uint64(cerr.Fault.Slot), 1+flag(cerr.Fault.Corrupt)
	}
	return []uint64{name, uint64(cerr.Attempts), slot, corrupt}
}

func (d *digest) result(variant string, pos uint64, r Result, sFirst bool) {
	if r.Lost > 0 {
		d.lost++
	}
	d.fold(variant, pos,
		uint64(r.SID)<<32|uint64(uint32(r.RID)),
		bits(r.S.X), bits(r.S.Y), bits(r.R.X), bits(r.R.Y),
		bits(r.Dist), bits(r.Radius), flag(r.Found), flag(sFirst), uint64(r.Case),
		uint64(r.AccessTime), uint64(r.TuneIn), uint64(r.EstimateTuneIn), uint64(r.FilterTuneIn),
		uint64(r.Lost), uint64(r.Retries), uint64(r.RecoverySlots))
	d.fold(variant, d.errWords(r.Err)...)
}

func (d *digest) topK(variant string, pos uint64, r TopKResult) {
	if r.Metrics.Lost > 0 {
		d.lost++
	}
	d.fold(variant, pos, uint64(len(r.Pairs)), flag(r.Found), bits(r.Radius),
		uint64(r.Metrics.AccessTime), uint64(r.Metrics.TuneIn),
		uint64(r.Metrics.Lost), uint64(r.Metrics.Retries), uint64(r.Metrics.RecoverySlots))
	for _, pr := range r.Pairs {
		d.fold(variant, uint64(pr.SID)<<32|uint64(uint32(pr.RID)),
			bits(pr.S.X), bits(pr.S.Y), bits(pr.R.X), bits(pr.R.Y), bits(pr.Dist))
	}
	d.fold(variant, d.errWords(r.Err)...)
}

func (d *digest) chain(variant string, pos uint64, r ChainResult) {
	if r.Lost > 0 {
		d.lost++
	}
	d.fold(variant, pos, uint64(len(r.Stops)), flag(r.Found), bits(r.Dist),
		uint64(r.AccessTime), uint64(r.TuneIn),
		uint64(r.Lost), uint64(r.Retries), uint64(r.RecoverySlots))
	for i, s := range r.Stops {
		d.fold(variant, uint64(r.StopIDs[i]), bits(s.X), bits(s.Y))
	}
	d.fold(variant, d.errWords(r.Err)...)
}

// digestEntry is one public entry point the grid runs through: it
// answers one system's requests, in order.
type digestEntry struct {
	name string
	run  func(t *testing.T, sys *System, reqs []Request) []Response
}

func batchEntry(workers int) func(*testing.T, *System, []Request) []Response {
	return func(t *testing.T, sys *System, reqs []Request) []Response {
		out, err := sys.QueryBatch(reqs, WithBatchWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

var digestEntries = []digestEntry{
	{"Do", func(t *testing.T, sys *System, reqs []Request) []Response {
		out := make([]Response, len(reqs))
		for i, req := range reqs {
			resp, err := sys.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = resp
		}
		return out
	}},
	{"Start", func(t *testing.T, sys *System, reqs []Request) []Response {
		out := make([]Response, len(reqs))
		for i, req := range reqs {
			cur, err := sys.Start(req)
			if err != nil {
				t.Fatal(err)
			}
			for !cur.Done() {
				cur.Step()
			}
			out[i] = cur.Response()
		}
		return out
	}},
	{"QueryBatch/1", batchEntry(1)},
	{"QueryBatch/4", batchEntry(4)},
}

func TestVariantDigest(t *testing.T) {
	for _, entry := range digestEntries {
		t.Run(entry.name, func(t *testing.T) { digestGrid(t, entry.run) })
	}
}

// digestReq is one grid request with the digest word it folds into.
type digestReq struct {
	variant string
	pos     uint64
	req     Request
}

// digestGrid runs the grid through one entry point and checks every word.
func digestGrid(t *testing.T, run func(*testing.T, *System, []Request) []Response) {
	d := &digest{t: t, sums: make(map[string]uint64)}
	pos := uint64(0)
	for _, fam := range digestFamilies() {
		for _, scheme := range []IndexScheme{PreorderIndex, DistributedIndex} {
			for _, shared := range []bool{false, true} {
				for _, loss := range digestLosses {
					opts := []Option{WithRegion(digestRegion), WithIndexScheme(scheme), WithPhases(1237, 4441)}
					if loss.model.Loss > 0 {
						opts = append(opts, WithFaults(loss.model))
					}
					if shared {
						opts = append(opts, WithSingleChannel())
					}
					sys, err := New(fam.sets[0], fam.sets[1], opts...)
					if err != nil {
						t.Fatal(err)
					}
					chains := make(map[int]*ChainSystem)
					for k := 2; k <= 4; k++ {
						copts := []Option{WithRegion(digestRegion), WithIndexScheme(scheme), WithPhases(1237, 4441)}
						if loss.model.Loss > 0 && !shared {
							copts = append(copts, WithFaults(loss.model))
						}
						cs, err := NewChain(fam.sets[:k], copts...)
						if err != nil {
							t.Fatal(err)
						}
						if shared {
							m := loss.model
							shareChain(cs, 1237, broadcast.FaultModel{Loss: m.Loss, Burst: m.Burst, Seed: m.Seed})
						}
						chains[k] = cs
					}
					var reqs []digestReq
					for _, ann := range []bool{false, true} {
						for _, skip := range []bool{false, true} {
							var qo []QueryOption
							if ann {
								qo = append(qo, WithANN(FactorWindowDouble))
							}
							if skip {
								qo = append(qo, WithoutDataRetrieval())
							}
							if loss.retries > 0 {
								qo = append(qo, WithMaxRetries(loss.retries))
							}
							for _, q := range fam.queries {
								pos++
								for _, a := range digestAlgos {
									reqs = append(reqs, digestReq{a.name, pos, Request{Point: q, Algo: a.algo, Options: qo}})
								}
								reqs = append(reqs,
									digestReq{"unordered", pos, Request{Point: q, Variant: Unordered, Options: qo}},
									digestReq{"roundtrip", pos, Request{Point: q, Variant: RoundTrip, Options: qo}})
								for _, k := range []int{1, 3, 10} {
									reqs = append(reqs, digestReq{fmt.Sprintf("topk%d", k), pos, Request{Point: q, Variant: TopK, K: k, Options: qo}})
								}
								for k := 2; k <= 4; k++ {
									d.chain(fmt.Sprintf("chain%d", k), pos, chains[k].Query(q, qo...))
								}
							}
						}
					}
					plain := make([]Request, len(reqs))
					for i, r := range reqs {
						plain[i] = r.req
					}
					for i, resp := range run(t, sys, plain) {
						r := reqs[i]
						if r.req.Variant == TopK {
							d.topK(r.variant, r.pos, resp.TopK)
						} else {
							d.result(r.variant, r.pos, resp.Result, resp.SFirst)
						}
					}
				}
			}
		}
	}
	if d.lost == 0 || d.err == 0 {
		t.Fatalf("grid exercised no loss (%d lossy answers) or no escalation (%d errors)", d.lost, d.err)
	}
	for _, v := range []string{"window", "double", "hybrid", "approx", "unordered", "roundtrip", "topk1", "topk3", "topk10", "chain2", "chain3", "chain4"} {
		if got, want := d.sums[v], variantDigests[v]; got != want {
			t.Errorf("%s digest %#x, want %#x", v, got, want)
		}
	}
}
