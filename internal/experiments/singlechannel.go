package experiments

import (
	"math/rand"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/observe"
)

// The single-vs-multi-channel comparison quantifies the paper's premise:
// its predecessor setting (Zheng–Lee–Lee, SUTC 2006) broadcasts both
// datasets on ONE channel, so a single-radio client experiences a combined
// cycle twice as long and cannot overlap the two NN searches in time. The
// multi-channel environment is this paper's contribution; the experiment
// measures what it buys.

func init() {
	Registry["ext-singlechannel"] = SingleVsMultiChannel
	Order = append(Order, "ext-singlechannel")
}

// SingleVsMultiChannel runs the four algorithms on the same datasets in
// both environments: two dedicated channels (this paper) and one
// time-multiplexed channel (the predecessor setting). Reported metric:
// mean access time; the multi-channel gain is the paper's headline
// motivation.
func SingleVsMultiChannel(cfg Config) *Table {
	cfg = cfg.Defaults()
	t := &Table{
		ID:     "ext-singlechannel",
		Title:  "Multi-channel vs single-channel broadcast, S = R = UNIF(-5.0)",
		XLabel: "environment / metric",
		Metric: "pages",
	}
	algos := cfg.resolveAlgos(ExactAlgos())
	for _, a := range algos {
		t.Columns = append(t.Columns, a.Name)
	}

	pair := uniformPair(cfg.Seed, 15210, 15210)
	b := build(pair, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	scratch := core.NewScratch()
	var nanos int64

	type accum struct{ access, tunein float64 }
	multi := map[string]*accum{}
	single := map[string]*accum{}
	for _, a := range algos {
		multi[a.Name] = &accum{}
		single[a.Name] = &accum{}
	}

	for q := 0; q < cfg.Queries; q++ {
		qp := geom.Pt(
			pair.Region.Lo.X+rng.Float64()*pair.Region.Width(),
			pair.Region.Lo.Y+rng.Float64()*pair.Region.Height(),
		)
		offS := rng.Int63n(b.progS.CycleLen())
		offR := rng.Int63n(b.progR.CycleLen())

		envMulti := core.Env{
			ChS:    broadcast.NewChannel(b.progS, offS),
			ChR:    broadcast.NewChannel(b.progR, offR),
			Region: pair.Region,
		}
		dual := broadcast.NewDualChannel(b.progS, b.progR, offS)
		envSingle := core.Env{
			ChS:    dual.FeedS(),
			ChR:    dual.FeedR(),
			Region: pair.Region,
		}

		elapsed := observe.Stopwatch()
		for _, a := range algos {
			rm := a.run(envMulti, qp, core.Options{ANN: a.ANN, Scratch: scratch})
			multi[a.Name].access += float64(rm.Metrics.AccessTime)
			multi[a.Name].tunein += float64(rm.Metrics.TuneIn)
			rs := a.run(envSingle, qp, core.Options{ANN: a.ANN, Scratch: scratch})
			single[a.Name].access += float64(rs.Metrics.AccessTime)
			single[a.Name].tunein += float64(rs.Metrics.TuneIn)
		}
		nanos += elapsed().Nanoseconds()
	}
	QueryNanos.Add(nanos)
	QueriesExecuted.Add(int64(2 * len(algos) * cfg.Queries))

	n := float64(cfg.Queries)
	row := func(label string, src map[string]*accum, f func(*accum) float64) {
		vals := make([]float64, len(algos))
		for i, a := range algos {
			vals[i] = f(src[a.Name]) / n
		}
		t.AddRow(label, vals...)
	}
	row("multi access", multi, func(a *accum) float64 { return a.access })
	row("single access", single, func(a *accum) float64 { return a.access })
	row("multi tune-in", multi, func(a *accum) float64 { return a.tunein })
	row("single tune-in", single, func(a *accum) float64 { return a.tunein })

	// Speedup row: single / multi access-time ratio.
	vals := make([]float64, len(algos))
	for i, a := range algos {
		vals[i] = single[a.Name].access / multi[a.Name].access
	}
	t.AddRow("access ratio (1ch/2ch)", vals...)
	return t
}
