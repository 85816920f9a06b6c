package broadcast

import (
	"fmt"
	"sort"

	"tnnbcast/internal/rtree"
)

// AirIndex is a broadcast program: one dataset's packed R-tree and data
// objects organized into a cyclic sequence of fixed-size pages. Channels,
// receivers, the TNN algorithms and the session engine all consult the
// program through it. BuildIndex builds every family as a
// *SegmentedIndex: the paper's preorder-(1,m) scheme and the distributed
// index with replicated upper levels, each with a flat or skewed
// broadcast-disks data schedule.
//
// All slot arguments and results are CYCLE-RELATIVE; the Channel layer
// owns the mapping between absolute channel slots and cycle positions
// (phase offsets, time multiplexing).
type AirIndex = *SegmentedIndex

// PageKind discriminates the two page types of a broadcast program.
type PageKind int

const (
	// IndexPage carries one R-tree node (MBRs of the children plus their
	// arrival-time pointers; for leaves, the point coordinates plus data
	// pointers).
	IndexPage PageKind = iota
	// DataPage carries a fragment of one data object's content.
	DataPage
)

func (k PageKind) String() string {
	if k == IndexPage {
		return "index"
	}
	return "data"
}

// Page describes what is on air during one slot.
type Page struct {
	Kind     PageKind
	NodeID   int // for IndexPage: preorder ID of the R-tree node
	ObjectID int // for DataPage: the object whose content this is
	Seq      int // for DataPage: fragment number within the object
}

// SkewedScheduler is a broadcast-disks data organization (Acharya et al.,
// SIGMOD 1995): the partition's objects are ranked by access weight and
// assigned to Disks "disks" spinning at geometrically decreasing speeds —
// disk d is broadcast Ratio^(Disks-1-d) times per cycle — so hot objects
// recur with proportionally shorter periods at the cost of a longer cycle.
//
// The zero value (Disks == 0) is the flat schedule, the paper's data
// organization: every object once per cycle, in partition order.
type SkewedScheduler struct {
	// Disks is the number of frequency classes (0 = flat; 1 broadcasts
	// every object once, ranked by weight).
	Disks int
	// Ratio is the integer frequency ratio between adjacent disks (>= 2).
	Ratio int
}

// MaxSkewClasses bounds a skewed schedule's disks and ratio wherever a
// configuration is admitted: the hot disk repeats Ratio^(Disks-1) times
// per cycle, so anything beyond a handful of classes only stretches the
// cycle (Sequence additionally saturates repetitions at 1024 per cycle).
const MaxSkewClasses = 16

// maxDiskRepetitions bounds how often the hottest disk may repeat per
// cycle: repetitions grow as Ratio^(Disks-1), so an unbounded
// configuration would overflow the chunk arithmetic (and the cycle
// itself) long before producing a useful schedule.
const maxDiskRepetitions = 1024

// Sequence returns one partition's object IDs in transmission order for
// one cycle, each at least once; weights[id] >= 0 is object id's access
// frequency over the WHOLE dataset (nil = uniform). Disks must be at least
// 1; a Ratio below 2 counts as 2. It is the classic broadcast-disks
// program: rank objects by weight (stable, so equal weights keep partition
// order), split the ranking into Disks groups of roughly equal TOTAL
// weight (hottest first — under real skew the hot disk is small, so its
// frequent repetition costs little cycle length), chunk disk d into
// Ratio^d chunks, and emit Ratio^(Disks-1) minor cycles, minor cycle i
// carrying chunk i mod Ratio^d of every disk d. Each object of disk d then
// appears exactly Ratio^(Disks-1-d) times per cycle.
func (s SkewedScheduler) Sequence(partition []int, weights []float64) []int {
	disks, ratio := s.Disks, max(s.Ratio, 2)
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
	// Sched organizes each data partition; the zero value is flat.
	Sched SkewedScheduler
	// Weights are per-object access weights for skewed scheduling,
	// indexed by object ID; nil = uniform. Ignored by the flat schedule.
	Weights []float64
}

// BuildIndex constructs the broadcast program described by spec. It
// panics on invalid Params (use Params.Validate to check first), on trees
// whose fanout exceeds the page capacities, on a weight vector that
// does not match the tree's objects, and on a cycle of more than 2³¹-1
// slots.
func BuildIndex(tree *rtree.Tree, p Params, spec IndexSpec) AirIndex {
	idx, err := buildIndex(tree, p, spec)
	if err != nil {
		panic(err)
	}
	return idx
}

// buildIndex is BuildIndex with the cycle bound as an error.
func buildIndex(tree *rtree.Tree, p Params, spec IndexSpec) (AirIndex, error) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	checkWeights(tree, spec.Weights)
	switch spec.Scheme {
	case SchemePreorder:
		return buildPreorder(tree, p, spec.Sched, spec.Weights)
	case SchemeDistributed:
		return buildDistributed(tree, p, spec.Cut, spec.Sched, spec.Weights)
	default:
		panic(fmt.Sprintf("broadcast: unknown index scheme %v", spec.Scheme))
	}
}
