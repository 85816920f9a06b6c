package broadcast

import (
	"fmt"
	"sort"

	"tnnbcast/internal/rtree"
)

// AirIndex is a broadcast program: one dataset's packed R-tree and data
// objects organized into a cyclic sequence of fixed-size pages. It is the
// pluggable "air organization" layer — everything above it (channels,
// receivers, the TNN algorithms, the session engine) consults the program
// only through this interface, so index families can be swapped without
// touching a single algorithm.
//
// Two families ship today: the paper's preorder-(1,m) scheme (*Program)
// and the distributed index with replicated upper levels
// (*SegmentedIndex, BuildDistributed). Both can be paired with a data
// Scheduler (flat or skewed broadcast-disks).
//
// All slot arguments and results are CYCLE-RELATIVE; the Channel layer
// owns the mapping between absolute channel slots and cycle positions
// (phase offsets, time multiplexing).
type AirIndex interface {
	// Scheme names the index family, e.g. "preorder" or "distributed".
	Scheme() string
	// Tree returns the packed R-tree the index serializes. The tree is
	// shared and immutable.
	Tree() *rtree.Tree
	// Params returns the physical page parameters the program was built
	// with.
	Params() Params
	// CycleLen returns the number of slots in one broadcast cycle.
	CycleLen() int64
	// NumIndexPages returns the number of DISTINCT index pages (one per
	// R-tree node); replicated schemes put some of them on air several
	// times per cycle.
	NumIndexPages() int
	// NumDataPages returns the number of data-page slots per cycle
	// (objects repeated by a skewed scheduler count every repetition).
	NumDataPages() int
	// PagesPerObject returns how many consecutive pages one object's
	// content occupies.
	PagesPerObject() int
	// Replication returns how many times the index root is on air per
	// cycle: the number of points at which a search can enter the index.
	// For the (1,m) scheme this is m; for the distributed index it is the
	// number of data partitions.
	Replication() int
	// PageAt returns the page on air at cycle-relative slot s ∈
	// [0, CycleLen); it panics outside that range.
	PageAt(s int64) Page
	// NextNodeSlot returns the smallest t >= rel with t < rel+CycleLen
	// such that index page nodeID is on air at cycle-relative slot
	// t mod CycleLen. rel must lie in [0, CycleLen). A result >= CycleLen
	// therefore means "first occurrence of the next cycle".
	NextNodeSlot(nodeID int, rel int64) int64
	// NextObjectSlot is NextNodeSlot for the first data page of objectID.
	NextObjectSlot(objectID int, rel int64) int64
}

// Scheduler decides the transmission order of one data partition — the
// seam between the index family (which partitions objects and interleaves
// index pages) and the data organization (which may repeat hot objects).
// The (1,m) scheme hands the scheduler each of its m fractions; the
// distributed index hands it each branch's objects.
type Scheduler interface {
	// Name identifies the scheduler, e.g. "flat" or "skewed".
	Name() string
	// Sequence returns the object IDs of one partition in transmission
	// order for one cycle. Every input ID must appear at least once; hot
	// objects may appear several times. weights[id] >= 0 is the relative
	// access frequency of object id over the WHOLE dataset (nil = uniform).
	// The input slice must not be mutated.
	Sequence(partition []int, weights []float64) []int
}

// FlatScheduler broadcasts every object exactly once per cycle, in
// partition order — the paper's data organization.
type FlatScheduler struct{}

// Name implements Scheduler.
func (FlatScheduler) Name() string { return "flat" }

// Sequence implements Scheduler: the identity schedule.
func (FlatScheduler) Sequence(partition []int, _ []float64) []int { return partition }

// SkewedScheduler is a broadcast-disks data organization (Acharya et al.,
// SIGMOD 1995): the partition's objects are ranked by access weight and
// assigned to Disks "disks" spinning at geometrically decreasing speeds —
// disk d is broadcast Ratio^(Disks-1-d) times per cycle — so hot objects
// recur with proportionally shorter periods at the cost of a longer cycle.
type SkewedScheduler struct {
	// Disks is the number of frequency classes (>= 1; 1 degenerates to
	// flat).
	Disks int
	// Ratio is the integer frequency ratio between adjacent disks (>= 2).
	Ratio int
}

// Name implements Scheduler.
func (s SkewedScheduler) Name() string { return "skewed" }

// maxDiskRepetitions bounds how often the hottest disk may repeat per
// cycle: repetitions grow as Ratio^(Disks-1), so an unbounded
// configuration would overflow the chunk arithmetic (and the cycle
// itself) long before producing a useful schedule.
const maxDiskRepetitions = 1024

// normalized clamps the configuration to sane values.
func (s SkewedScheduler) normalized() (disks, ratio int) {
	disks, ratio = s.Disks, s.Ratio
	if disks < 1 {
		disks = 2
	}
	if ratio < 2 {
		ratio = 2
	}
	return disks, ratio
}

// Sequence implements Scheduler with the classic broadcast-disks program:
// rank objects by weight (stable, so equal weights keep partition order),
// split the ranking into Disks groups of roughly equal TOTAL weight
// (hottest first — under real skew the hot disk is small, so its frequent
// repetition costs little cycle length), chunk disk d into Ratio^d chunks,
// and emit Ratio^(Disks-1) minor cycles, minor cycle i carrying chunk
// i mod Ratio^d of every disk d. Each object of disk d then appears
// exactly Ratio^(Disks-1-d) times per cycle.
func (s SkewedScheduler) Sequence(partition []int, weights []float64) []int {
	disks, ratio := s.normalized()
	n := len(partition)
	if n == 0 {
		return nil
	}
	if disks > n {
		disks = n
	}
	ranked := make([]int, n)
	copy(ranked, partition)
	if weights != nil {
		sort.SliceStable(ranked, func(a, b int) bool {
			return weights[ranked[a]] > weights[ranked[b]]
		})
	}

	// Disk d holds ranked[dStart[d]:dStart[d+1]], hottest objects in disk
	// 0. Boundaries equalize each disk's weight mass, the broadcast-disks
	// sizing that keeps hot disks small; with uniform (or nil) weights it
	// degenerates to an equal-count split.
	dStart := make([]int, disks+1)
	total := 0.0
	if weights != nil {
		for _, id := range ranked {
			total += weights[id]
		}
	}
	if total > 0 {
		acc, next := 0.0, 1
		for i, id := range ranked {
			acc += weights[id]
			// Close disk next-1 once its share of the mass is reached,
			// keeping at least one object per disk and enough objects for
			// the remaining disks.
			for next < disks && acc >= total*float64(next)/float64(disks) &&
				i+1 >= next && n-(i+1) >= disks-next {
				dStart[next] = i + 1
				next++
			}
		}
		for ; next < disks; next++ { // degenerate mass: fall back to tail split
			dStart[next] = n - (disks - next)
		}
		dStart[disks] = n
	} else {
		base, rem := n/disks, n%disks
		for d := 0; d < disks; d++ {
			sz := base
			if d < rem {
				sz++
			}
			dStart[d+1] = dStart[d] + sz
		}
	}

	// chunks[d] = ratio^d, saturated at maxDiskRepetitions: past the cap,
	// colder disks simply stop slowing down further. The cap keeps the
	// arithmetic overflow-free and the cycle length bounded for any
	// configuration; the mod-indexed emission below is correct for every
	// chunks[d] <= minor.
	chunks := make([]int, disks)
	chunks[0] = 1
	for d := 1; d < disks; d++ {
		chunks[d] = chunks[d-1]
		if next := chunks[d-1] * ratio; next <= maxDiskRepetitions {
			chunks[d] = next // else saturate: colder disks stop slowing down
		}
	}
	minor := chunks[disks-1] // bounded ratio^(disks-1) minor cycles

	var out []int
	for i := 0; i < minor; i++ {
		for d := 0; d < disks; d++ {
			objs := ranked[dStart[d]:dStart[d+1]]
			if len(objs) == 0 {
				continue
			}
			// Chunk i mod chunks[d] of disk d (ceil split; trailing chunks
			// may be shorter or empty).
			c := i % chunks[d]
			sz := (len(objs) + chunks[d] - 1) / chunks[d]
			lo := c * sz
			if lo >= len(objs) {
				continue
			}
			hi := lo + sz
			if hi > len(objs) {
				hi = len(objs)
			}
			out = append(out, objs[lo:hi]...)
		}
	}
	return out
}

// SchemeID selects an index family for BuildIndex.
type SchemeID int

const (
	// SchemePreorder is the paper's preorder-(1,m) organization: the full
	// index in depth-first order before each of m equal data fractions.
	SchemePreorder SchemeID = iota
	// SchemeDistributed is the classic distributed index: the upper Cut
	// levels of the tree are replicated as a root-to-branch path before
	// each branch's index and data segment, giving (1,m)-like entry
	// frequency at a fraction of the replication overhead.
	SchemeDistributed
)

func (s SchemeID) String() string {
	switch s {
	case SchemePreorder:
		return "preorder"
	case SchemeDistributed:
		return "distributed"
	default:
		return fmt.Sprintf("SchemeID(%d)", int(s))
	}
}

// ParseScheme returns the scheme whose String is name.
func ParseScheme(name string) (SchemeID, error) {
	for _, s := range []SchemeID{SchemePreorder, SchemeDistributed} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("broadcast: unknown index scheme %q (preorder or distributed)", name)
}

// IndexSpec selects and parameterizes an index family and data scheduler.
// The zero value reproduces the paper's organization exactly.
type IndexSpec struct {
	// Scheme selects the index family.
	Scheme SchemeID
	// Cut is the number of replicated upper levels of the distributed
	// index (0 = auto: half the tree height). Ignored by SchemePreorder.
	Cut int
	// Sched organizes each data partition (nil = FlatScheduler).
	Sched Scheduler
	// Weights are per-object access weights for skewed scheduling,
	// indexed by object ID; nil = uniform. Ignored by FlatScheduler.
	Weights []float64
}

// BuildIndex constructs the broadcast program described by spec. Like
// BuildProgram it panics on invalid Params and on trees whose fanout
// exceeds the page capacities. The preorder scheme with a flat schedule
// returns the arithmetic *Program implementation (the fast path every
// existing workload uses); everything else returns a *SegmentedIndex.
func BuildIndex(tree *rtree.Tree, p Params, spec IndexSpec) AirIndex {
	flat := spec.Sched == nil
	if _, ok := spec.Sched.(FlatScheduler); ok {
		flat = true
	}
	switch spec.Scheme {
	case SchemePreorder:
		if flat {
			return BuildProgram(tree, p)
		}
		return BuildScheduled(tree, p, spec.Sched, spec.Weights)
	case SchemeDistributed:
		sched := spec.Sched
		if sched == nil {
			sched = FlatScheduler{}
		}
		return BuildDistributed(tree, p, spec.Cut, sched, spec.Weights)
	default:
		panic(fmt.Sprintf("broadcast: unknown index scheme %v", spec.Scheme))
	}
}
