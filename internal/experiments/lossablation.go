package experiments

import (
	"fmt"

	"tnnbcast/internal/broadcast"
)

// The lossy-air ablation. Every other experiment runs on perfect
// channels; this one subjects both channels to the broadcast.FaultFeed
// fault models and measures what resilience costs. Because clients
// recover by re-deriving a faulted page's next arrival from the air
// index, loss never changes an answer (the differential tests in
// internal/core assert bit-identical results) — it only inflates access
// time (waiting for retransmissions) and tune-in time (corrupted pages
// are downloaded before they are discarded; lost and retried pages are
// re-downloaded). The table reports that inflation per algorithm and per
// index family across a loss-rate ladder, plus a bursty point
// (Gilbert–Elliott, mean burst 8 pages) at the same stationary rate as
// the 1% i.i.d. row — bursts concentrate the damage into fewer, longer
// recovery episodes.

func init() {
	Registry["ablation-loss"] = AblationLoss
	Order = append(Order, "ablation-loss")
}

// lossLadder is the evaluated fault ladder: i.i.d. loss rates, then the
// bursty variant of the 1% point.
var lossLadder = []struct {
	label string
	loss  float64
	burst float64
}{
	{"0", 0, 0},
	{"0.001", 0.001, 0},
	{"0.01", 0.01, 0},
	{"0.05", 0.05, 0},
	{"0.01 burst=8", 0.01, 8},
}

// AblationLoss sweeps the page-loss rate on the default workload for all
// four algorithms on both index families: access and tune-in per loss
// point, plus the mean faulted receptions per query.
func AblationLoss(cfg Config) *Table {
	cfg = cfg.Defaults()
	algos := cfg.resolveAlgos(ExactAlgos())
	t := &Table{
		ID:     "ablation-loss",
		Title:  "Page-loss rate vs TNN cost, S = R = UNIF(-5.0)",
		XLabel: "index / loss",
		Metric: "pages",
	}
	for _, a := range algos {
		t.Columns = append(t.Columns, a.Name+" access", a.Name+" tune-in")
	}
	t.Columns = append(t.Columns, "mean lost")
	pair := indexWorkloadPair(cfg.Seed)
	for _, scheme := range []broadcast.SchemeID{broadcast.SchemePreorder, broadcast.SchemeDistributed} {
		for _, pt := range lossLadder {
			c := cfg
			c.Air.Scheme = scheme
			c.Air.Faults.Loss = pt.loss
			c.Air.Faults.Burst = pt.burst
			st := RunPairing(pair, algos, c)
			vals := make([]float64, 0, 2*len(algos)+1)
			lost := 0.0
			for _, a := range algos {
				vals = append(vals, st[a.Name].MeanAccess, st[a.Name].MeanTuneIn)
				lost += st[a.Name].MeanLost
			}
			vals = append(vals, lost/float64(len(algos)))
			t.AddRow(fmt.Sprintf("%s p=%s", scheme, pt.label), vals...)
		}
	}
	return t
}
