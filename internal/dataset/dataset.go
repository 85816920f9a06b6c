// Package dataset generates the point datasets of the paper's evaluation:
// the uniform density series UNIF(E) and the 2,000–30,000 size series over
// a 39,000×39,000 region, plus deterministic synthetic substitutes for the
// two real datasets (the Greek CITY dataset and the northeastern-US POST
// dataset, whose original archive is no longer available). See DESIGN.md §4
// for the substitution rationale: the experiments depend on the datasets'
// cardinality, region and skew, all of which the substitutes match.
//
// Every generator is a pure function of its seed, so experiments are
// reproducible bit for bit.
package dataset

import (
	"math"
	"math/rand"

	"tnnbcast/internal/geom"
)

// PaperRegion is the 39,000×39,000 square region of the synthetic datasets
// and the CITY dataset.
var PaperRegion = geom.RectOf(geom.Pt(0, 0), geom.Pt(39000, 39000))

// PostRegion is the 1,000,000×1,000,000 square region of the POST dataset.
var PostRegion = geom.RectOf(geom.Pt(0, 0), geom.Pt(1000000, 1000000))

// DensityExponents are the eight synthetic densities 10^E of the paper's
// first dataset series (points per unit area).
var DensityExponents = []float64{-7.0, -6.6, -6.2, -5.8, -5.4, -5.0, -4.6, -4.2}

// SizeSeries returns the paper's second synthetic series: dataset sizes
// 2,000 through 30,000 in steps of 2,000.
func SizeSeries() []int {
	out := make([]int, 0, 15)
	for n := 2000; n <= 30000; n += 2000 {
		out = append(out, n)
	}
	return out
}

// DensityCount converts a density exponent E into the point count for a
// region: round(10^E × area). For PaperRegion this reproduces the paper's
// counts 152, 382, 960, 2,411, 6,055, 15,210, 38,206 and 95,969.
func DensityCount(exponent float64, region geom.Rect) int {
	return int(math.Round(math.Pow(10, exponent) * region.Area()))
}

// Uniform returns n points independently uniform over region.
func Uniform(seed int64, n int, region geom.Rect) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			region.Lo.X+rng.Float64()*region.Width(),
			region.Lo.Y+rng.Float64()*region.Height(),
		)
	}
	return pts
}

// Clustered returns n points from a Gaussian mixture with the given number
// of uniformly placed cluster centers. sigmaFrac is the cluster standard
// deviation as a fraction of the region width; points falling outside the
// region are resampled.
func Clustered(seed int64, n, clusters int, sigmaFrac float64, region geom.Rect) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, clusters)
	for i := range centers {
		centers[i] = geom.Pt(
			region.Lo.X+rng.Float64()*region.Width(),
			region.Lo.Y+rng.Float64()*region.Height(),
		)
	}
	sigma := sigmaFrac * region.Width()
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		c := centers[rng.Intn(clusters)]
		p := geom.Pt(c.X+rng.NormFloat64()*sigma, c.Y+rng.NormFloat64()*sigma)
		if region.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// Scale maps points affinely from one region onto another. The paper
// rescales datasets to a common area when they were extracted from regions
// of different sizes ("when datasets with different areas are used, they
// are scaled to the same area").
func Scale(pts []geom.Point, from, to geom.Rect) []geom.Point {
	sx := to.Width() / from.Width()
	sy := to.Height() / from.Height()
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Pt(
			to.Lo.X+(p.X-from.Lo.X)*sx,
			to.Lo.Y+(p.Y-from.Lo.Y)*sy,
		)
	}
	return out
}
