package deploy

import (
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
)

// groupIndex is a uniform-grid spatial index over deployment points,
// built once per Model. It answers "which groups can lie within radius r
// of a query point" by scanning only the grid cells whose rectangles
// intersect the query disk, instead of all n groups. The g(z) function is
// exactly zero beyond GTable.MaxZ(), so every per-group computation in
// the training/localization hot path (expected observations, binomial
// sampling, likelihood active sets) only needs the groups an index query
// returns.
//
// The index prunes at cell granularity only: a returned candidate may lie
// a little beyond r (up to a cell diagonal). That is deliberate — callers
// re-test each candidate with exactly the same floating-point predicate
// a full scan over all n groups would use (z >= MaxZ, dist <= margin, …),
// which makes the indexed paths bit-identical to such a scan by
// construction, immune to any rounding disagreement between the index's
// arithmetic and the caller's. The scan itself survives only as the test
// oracle in index_test.go.
//
// Layout is CSR (one offsets slice + one ids slice) rather than a
// slice-of-slices: group ids of a cell are contiguous, and the whole
// index is two allocations. Ids are inserted in ascending group order, so
// each cell's ids are sorted; query results are re-sorted globally
// because cells are visited row-major.
type groupIndex struct {
	minX, minY float64
	invCell    float64 // 1 / cell side
	nx, ny     int
	start      []int32 // len nx*ny+1; cell c holds ids[start[c]:start[c+1]]
	ids        []int32
}

// maxIndexCells bounds the grid so degenerate configurations (one group,
// enormous fields) cannot allocate an absurd number of empty cells.
const maxIndexCells = 1 << 16

// newGroupIndex buckets the deployment points into square cells sized to
// the mean point spacing (so a query touches ~1 group per visited cell).
func newGroupIndex(points []geom.Point) *groupIndex {
	n := len(points)
	if n == 0 {
		return nil
	}
	minX, minY := points[0].X, points[0].Y
	maxX, maxY := minX, minY
	for _, p := range points[1:] {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	// Mean spacing of n points over the bounding box; degenerate boxes
	// (single group, collinear points) fall back to one cell per axis.
	cell := math.Sqrt(w * h / float64(n))
	if !(cell > 0) {
		cell = math.Max(math.Max(w, h), 1)
	}
	nx := int(math.Ceil(w/cell)) + 1
	ny := int(math.Ceil(h/cell)) + 1
	for nx*ny > maxIndexCells {
		cell *= 2
		nx = int(math.Ceil(w/cell)) + 1
		ny = int(math.Ceil(h/cell)) + 1
	}

	gi := &groupIndex{
		minX: minX, minY: minY,
		invCell: 1 / cell,
		nx:      nx, ny: ny,
		start: make([]int32, nx*ny+1),
		ids:   make([]int32, n),
	}
	// Counting sort by cell; ascending group order within each cell comes
	// from the stable second pass.
	cellOf := func(p geom.Point) int {
		return gi.cellY(p.Y)*nx + gi.cellX(p.X)
	}
	for _, p := range points {
		gi.start[cellOf(p)+1]++
	}
	for c := 1; c < len(gi.start); c++ {
		gi.start[c] += gi.start[c-1]
	}
	fill := make([]int32, nx*ny)
	copy(fill, gi.start[:nx*ny])
	for i, p := range points {
		c := cellOf(p)
		gi.ids[fill[c]] = int32(i)
		fill[c]++
	}
	return gi
}

func (gi *groupIndex) cellX(x float64) int { return cellCoord((x-gi.minX)*gi.invCell, gi.nx) }
func (gi *groupIndex) cellY(y float64) int { return cellCoord((y-gi.minY)*gi.invCell, gi.ny) }

// cellCoord maps an offset measured in cell sides to a cell index in
// [0, n-1]. The clamp happens in float space, before the conversion: a
// far-away query point or a huge (even infinite) radius puts the offset
// outside int's range, where Go's float→int conversion is
// implementation-defined (amd64 yields math.MinInt64, which a clamp
// after the conversion would silently turn into cell 0 and shrink the
// result below the superset callers rely on).
func cellCoord(off float64, n int) int {
	c := math.Floor(off)
	if !(c > 0) { // negative, -Inf, or NaN
		return 0
	}
	if c >= float64(n-1) {
		return n - 1
	}
	return int(c)
}

// appendNear appends to dst the ids of every group whose cell rectangle
// intersects the axis-aligned bounding square of the disk (loc, radius),
// sorted ascending. The result is a superset of the groups within radius;
// see the type comment for why candidates are not distance-filtered here.
func (gi *groupIndex) appendNear(dst []int32, loc geom.Point, radius float64) []int32 {
	if radius < 0 {
		radius = 0
	}
	x0, x1 := gi.cellX(loc.X-radius), gi.cellX(loc.X+radius)
	y0, y1 := gi.cellY(loc.Y-radius), gi.cellY(loc.Y+radius)
	base := len(dst)
	for cy := y0; cy <= y1; cy++ {
		row := cy * gi.nx
		// Cells of one row are contiguous in CSR, so the whole x-range is
		// a single append.
		//
		//lint:ignore noalloc Into-style append into the caller's pooled buffer; growth is first-touch only
		dst = append(dst, gi.ids[gi.start[row+x0]:gi.start[row+x1+1]]...)
	}
	// Grid/hex layouts enumerate groups in the same row-major order as the
	// cells, so the collected ids are usually already ascending; random
	// layouts pay one small sort.
	if !slices.IsSorted(dst[base:]) {
		slices.Sort(dst[base:])
	}
	return dst
}

// scratchPool recycles the candidate-id buffers the Model's indexed
// methods use, so steady-state queries allocate nothing. The pool holds
// *[]int32 (pointer-to-slice avoids boxing the header on every Put).
type scratchPool struct{ p sync.Pool }

func (s *scratchPool) get() *[]int32 {
	if v := s.p.Get(); v != nil {
		return v.(*[]int32)
	}
	//lint:ignore noalloc pool-miss path: the buffer is recycled via put thereafter
	buf := make([]int32, 0, 64)
	return &buf
}

func (s *scratchPool) put(b *[]int32) {
	*b = (*b)[:0]
	s.p.Put(b)
}
