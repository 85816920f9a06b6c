package broadcast

import (
	"sync"

	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// AirSpec fixes how a set of datasets goes on the air: the page
// parameters, the index family and data schedule, the phase offsets,
// whether two datasets share one time-multiplexed channel, and the fault
// model. BuildAir turns it into trees, air indexes and feeds; the
// in-process systems, the wire server and the wire client all build
// through it, so they put the same pages in the same slots.
type AirSpec struct {
	// Params are the physical page parameters of every channel.
	Params Params
	// Packing selects the R-tree bulk-loading algorithm; the zero value
	// is STR, the paper's choice.
	Packing rtree.Packing
	// Scheme selects the index family.
	Scheme SchemeID
	// Cut is the distributed index's replicated-level count (0 = auto).
	Cut int
	// SkewDisks/SkewRatio configure a skewed broadcast-disks data
	// schedule; SkewDisks == 0 selects the flat schedule.
	SkewDisks, SkewRatio int
	// Phases are the channels' phase offsets and Weights the optional
	// per-object access weights (nil = uniform). Dataset i takes entry
	// i%2, so a chain of more than two datasets alternates them.
	Phases  [2]int64
	Weights [2][]float64
	// Single multiplexes two datasets on ONE physical channel (Multiplex):
	// each period of it carries the first dataset's cycle, then the
	// second's. Only Phases[0] applies, modulo the period.
	Single bool
	// Faults is the fault model of the air. Physical channel c faults
	// with the model reseeded by DeriveFaultSeed(Faults.Seed, c); the
	// zero model is the perfect channel. It must Validate.
	Faults FaultModel
}

// indexSpec translates the scheme, cut and skew into one dataset's
// index build specification.
func (s *AirSpec) indexSpec(weights []float64) IndexSpec {
	sched := SkewedScheduler{Disks: s.SkewDisks, Ratio: s.SkewRatio}
	return IndexSpec{Scheme: s.Scheme, Cut: s.Cut, Sched: sched, Weights: weights}
}

// Air is a built broadcast: one packed R-tree, air index, Channel and
// feed per dataset. Dataset i's Channel is all of physical channel i, or
// under AirSpec.Single its share of physical channel 0.
type Air struct {
	Trees   []*rtree.Tree
	Indexes []AirIndex
	// Feeds are the datasets' channels as a receiver sees them: the
	// *Channel, wrapped in a *FaultFeed when the fault model is enabled.
	Feeds []Feed

	chans  []*Channel // per dataset
	single bool       // both datasets share physical channel 0
	faults FaultModel
}

// BuildAir builds the broadcast of sets under spec. Like BuildIndex it
// panics on input Check rejects: invalid Params or fault model, a weight
// vector that does not match its dataset; and on Single with other than
// two datasets. Check cannot see the cycle length, which only the layout
// knows: BuildAir returns an error when a dataset's cycle would run over
// 2³¹-1 slots.
//
// The datasets share no page, so each one's tree and index are built on
// a goroutine of its own, and BuildAir returns once all are done. Trees
// and Indexes keep the order of sets, and every result is the one a
// serial build gives. A panic in a build is re-raised on the caller's
// goroutine after the wait, with the same value; when several builds
// fail, the first dataset's panic or error wins, as in a serial build.
func BuildAir(sets [][]geom.Point, spec AirSpec) (*Air, error) {
	if spec.Single && len(sets) != 2 {
		panic("broadcast: a multiplexed channel carries exactly two datasets")
	}
	rcfg := rtree.Config{
		LeafCap: spec.Params.LeafCap(),
		NodeCap: spec.Params.NodeCap(),
		Packing: spec.Packing,
	}
	a := &Air{
		Trees:   make([]*rtree.Tree, len(sets)),
		Indexes: make([]AirIndex, len(sets)),
		single:  spec.Single,
		faults:  spec.Faults,
	}
	panics := make([]any, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			a.Trees[i] = rtree.Build(set, rcfg)
			a.Indexes[i], errs[i] = buildIndex(a.Trees[i], spec.Params, spec.indexSpec(spec.Weights[i%2]))
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(p)
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	if spec.Single {
		s, r := Multiplex(a.Indexes[0], a.Indexes[1], spec.Phases[0])
		a.chans = []*Channel{s, r}
	} else {
		for i, idx := range a.Indexes {
			a.chans = append(a.chans, NewChannel(idx, spec.Phases[i%2]))
		}
	}
	a.mountFeeds()
	return a, nil
}

// mountFeeds builds the datasets' feeds over the air's channels.
func (a *Air) mountFeeds() {
	for _, ch := range a.chans {
		a.Feeds = append(a.Feeds, ch)
	}
	if a.faults.Enabled() {
		for i, f := range a.Feeds {
			// One physical channel kills a slot for both datasets alike.
			c := uint64(a.ChannelOf(i))
			a.Feeds[i] = NewFaultFeed(f, a.faults.WithSeed(DeriveFaultSeed(a.faults.Seed, c)))
		}
	}
}

// Clone returns a copy of the air that shares its trees and indexes but
// owns fresh channels and feeds at the same phases, so one goroutine can
// Rephase it while others query the original.
func (a *Air) Clone() *Air {
	c := &Air{Trees: a.Trees, Indexes: a.Indexes, single: a.single, faults: a.faults}
	for _, ch := range a.chans {
		cp := *ch
		c.chans = append(c.chans, &cp)
	}
	c.mountFeeds()
	return c
}

// Rephase moves the air's channels to new phase offsets in place, as if
// built with AirSpec.Phases = phases; the feeds see the change. It must
// not run concurrently with queries on this air.
//
//tnn:noalloc
func (a *Air) Rephase(phases [2]int64) {
	for i, ch := range a.chans {
		ch.offset = floorMod(phases[a.ChannelOf(i)%2], ch.period)
	}
}

// Channels returns the number of physical channels.
func (a *Air) Channels() int {
	if a.single {
		return 1
	}
	return len(a.chans)
}

// ChannelOf returns the physical channel that carries dataset d.
func (a *Air) ChannelOf(d int) int {
	if a.single {
		return 0
	}
	return d
}

// CycleLen returns the cycle length of physical channel c.
func (a *Air) CycleLen(c int) int64 { return a.chans[c].period }

// Phase returns physical channel c's phase offset, normalized into
// [0, CycleLen(c)): the slot at which its cycle starts.
func (a *Air) Phase(c int) int64 { return a.chans[c].offset }

// CyclePos returns the position of slot t in physical channel c's cycle,
// in [0, CycleLen(c)).
func (a *Air) CyclePos(c int, t int64) int64 {
	return floorMod(t-a.Phase(c), a.CycleLen(c))
}

// PageOn returns the page on air on physical channel c at slot t and the
// dataset that owns it.
func (a *Air) PageOn(c int, t int64) (Page, int) {
	d := c
	if a.single && a.chans[0].rel(t) >= a.chans[0].length {
		d = 1 // past the first share
	}
	return a.chans[d].PageAt(t), d
}

// Fault reports the fault of physical channel c at slot t. The first
// dataset on a channel carries that channel's fault pattern.
func (a *Air) Fault(c int, t int64) *PageFault {
	return a.Feeds[c].Fault(t)
}
