package sph

import (
	"math"
	"slices"

	"jungle/internal/amuse/data"
)

// cellList is a uniform cell list for fixed-radius neighbor queries. Cell
// size equals the search radius, so neighbors of a point lie in its 27
// surrounding cells. It is held in flat arrays sized once for n particles
// and refilled by build: the particle indices sorted by cell (by x, then y,
// then z, ascending index within a cell), the distinct cells in that order,
// and where each cell's particles start.
type cellList struct {
	inv   float64
	ents  []cellEntry // build's sort buffer
	idx   []int32     // particle indices in cell order
	keys  [][3]int32  // distinct cells, ascending
	start []int32     // cell c holds idx[start[c]:start[c+1]]
}

// cellEntry is one particle's cell and index.
type cellEntry struct {
	key [3]int32
	i   int32
}

func newCellList(n int) cellList {
	return cellList{
		ents:  make([]cellEntry, n),
		idx:   make([]int32, n),
		keys:  make([][3]int32, 0, n),
		start: make([]int32, 0, n+1),
	}
}

func cmpKey(a, b [3]int32) int {
	for d := 0; d < 3; d++ {
		if a[d] != b[d] {
			if a[d] < b[d] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func cmpEntry(a, b cellEntry) int {
	if c := cmpKey(a.key, b.key); c != 0 {
		return c
	}
	return int(a.i - b.i)
}

// build indexes positions with the given cell size.
func (cl *cellList) build(pos []data.Vec3, cell float64) {
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1
	}
	cl.inv = 1 / cell
	ents := cl.ents[:len(pos)]
	for i, p := range pos {
		ents[i] = cellEntry{cl.key(p), int32(i)}
	}
	slices.SortFunc(ents, cmpEntry)
	cl.keys, cl.start = cl.keys[:0], cl.start[:0]
	for k, e := range ents {
		if k == 0 || e.key != ents[k-1].key {
			cl.keys = append(cl.keys, e.key)
			cl.start = append(cl.start, int32(k))
		}
		cl.idx[k] = e.i
	}
	cl.start = append(cl.start, int32(len(ents)))
}

func (cl *cellList) key(p data.Vec3) [3]int32 {
	return [3]int32{
		int32(math.Floor(p[0] * cl.inv)),
		int32(math.Floor(p[1] * cl.inv)),
		int32(math.Floor(p[2] * cl.inv)),
	}
}

// span returns the particles of the cells (kx, ky, z0) … (kx, ky, z1), which
// are adjacent in the sorted order, as one run of idx.
func (cl *cellList) span(kx, ky, z0, z1 int32) []int32 {
	lo, _ := slices.BinarySearchFunc(cl.keys, [3]int32{kx, ky, z0}, cmpKey)
	hi := lo
	for hi < len(cl.keys) && cl.keys[hi][0] == kx && cl.keys[hi][1] == ky && cl.keys[hi][2] <= z1 {
		hi++
	}
	return cl.idx[cl.start[lo]:cl.start[hi]]
}

// around fills runs with the candidates in the 27 cells around cell c and
// returns the filled part: the nine columns (c[0]+dx, c[1]+dy, ·) with x
// outermost, each column's cells kz-1, kz, kz+1 in that order and ascending
// index within a cell. A column is one run, unless kz±1 wraps around int32
// (positions past 2³¹ cells all land in the extreme cells), where its three
// cells are not neighbours in the sorted order and make a run each. Callers
// filter by actual distance.
func (cl *cellList) around(c [3]int32, runs *[27][]int32) [][]int32 {
	n := 0
	z0, z1 := c[2]-1, c[2]+1
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			kx, ky := c[0]+dx, c[1]+dy
			if z0 < z1 {
				runs[n] = cl.span(kx, ky, z0, z1)
				n++
				continue
			}
			for d := int32(0); d < 3; d++ {
				runs[n] = cl.span(kx, ky, z0+d, z0+d)
				n++
			}
		}
	}
	return runs[:n]
}

// rejectAbove returns a bound on a squared distance above which its square
// root is certain to be at least the support radius r, so a candidate beyond
// it needs no square root to be rejected by the exact test `√d² < r`. r·r
// rounds to within 2⁻⁵³ of r², so (1+2⁻⁵⁰) times it lies above r²; the square
// root is correctly rounded and monotone, so the root of anything above r² is
// at least r. Where r·r is too small to carry 53 bits, or is not a number,
// there is no bound and every candidate takes the exact test.
func rejectAbove(r float64) float64 {
	r2 := r * r
	if !(r2 >= 0x1p-1000) {
		return math.Inf(1)
	}
	return r2 * (1 + 0x1p-50)
}
