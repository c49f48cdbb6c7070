package sph

import (
	"math"
	"math/bits"
	"slices"

	"jungle/internal/amuse/data"
)

// cellList is a uniform cell list for fixed-radius neighbor queries. Cell
// size equals the search radius, so neighbors of a point lie in its 27
// surrounding cells. build refills flat arrays sized once for n particles:
// idx, the particle indices sorted by cell (by x, then y, then z, ascending
// index within a cell), and ents, their sort keys. A particle's position in
// idx is its rank, and rank order is the order the pair loops sum in. Where
// the cells fit (finite positions, cells strictly inside int32, the three
// axes' cell ranges and the index together in 63 bits), a key packs the
// cell's offset from the lowest cell above the index, so the sort and every
// lookup compare integers; otherwise a key is the bare index, and both
// recompute cells from the positions.
type cellList struct {
	inv    float64
	pos    []data.Vec3
	ents   []uint64
	idx    []int32
	packed bool
	mask   uint64   // a packed key's index bits
	shift  [3]uint  // where each axis's offset sits in a packed key
	lo, hi [3]int32 // the lowest and the highest cell on each axis
}

func newCellList(n int) cellList {
	return cellList{ents: make([]uint64, n), idx: make([]int32, n)}
}

// build indexes positions with the given cell size.
func (cl *cellList) build(pos []data.Vec3, cell float64) {
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1
	}
	cl.inv, cl.pos = 1/cell, pos
	ents := cl.ents[:len(pos)]
	if cl.packed = cl.fit(pos); cl.packed {
		for i, p := range pos {
			k := cl.key(p)
			ents[i] = cl.offset(0, k[0]) | cl.offset(1, k[1]) | cl.offset(2, k[2]) | uint64(i)
		}
		slices.Sort(ents)
	} else {
		for i := range ents {
			ents[i] = uint64(i)
		}
		slices.SortFunc(ents, func(a, b uint64) int {
			if c := cmpKey(cl.key(pos[a]), cl.key(pos[b])); c != 0 {
				return c
			}
			return int(a) - int(b)
		})
	}
	for r, e := range ents {
		cl.idx[r] = int32(e & cl.mask)
	}
}

// fit reports whether the cells fit a packed key, and lays the key out.
func (cl *cellList) fit(pos []data.Vec3) bool {
	cl.mask = math.MaxUint64
	lo, hi := data.Vec3{math.Inf(1), math.Inf(1), math.Inf(1)}, data.Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, p := range pos {
		for d := 0; d < 3; d++ {
			lo[d], hi[d] = min(lo[d], p[d]), max(hi[d], p[d])
		}
	}
	shift := uint(bits.Len(uint(len(pos))))
	for d := 2; d >= 0; d-- {
		a, b := math.Floor(lo[d]*cl.inv), math.Floor(hi[d]*cl.inv)
		if !(a > math.MinInt32 && b < math.MaxInt32) {
			return false
		}
		cl.lo[d], cl.hi[d], cl.shift[d] = int32(a), int32(b), shift
		shift += uint(bits.Len32(uint32(cl.hi[d] - cl.lo[d])))
	}
	if shift >= 64 {
		return false
	}
	cl.mask = 1<<cl.shift[2] - 1
	return true
}

// offset is cell k's distance from the lowest cell on axis d, in place.
func (cl *cellList) offset(d int, k int32) uint64 {
	return uint64(uint32(k)-uint32(cl.lo[d])) << cl.shift[d]
}

func (cl *cellList) key(p data.Vec3) [3]int32 {
	return [3]int32{int32(math.Floor(p[0] * cl.inv)), int32(math.Floor(p[1] * cl.inv)), int32(math.Floor(p[2] * cl.inv))}
}

func cmpKey(a, b [3]int32) int { return slices.Compare(a[:], b[:]) }

// span returns the particles of the cells (kx, ky, z0) … (kx, ky, z1), which
// are adjacent in the sorted order, as one run of idx.
func (cl *cellList) span(kx, ky, z0, z1 int32) []int32 {
	if !cl.packed {
		cmp := func(e uint64, t [3]int32) int { return cmpKey(cl.key(cl.pos[e]), t) }
		a, _ := slices.BinarySearchFunc(cl.ents, [3]int32{kx, ky, z0}, cmp)
		b, _ := slices.BinarySearchFunc(cl.ents, [3]int32{kx, ky, z1}, func(e uint64, t [3]int32) int { return cmp(e, t)*2 - 1 })
		return cl.idx[a:b]
	}
	z0, z1 = max(z0, cl.lo[2]), min(z1, cl.hi[2])
	if kx < cl.lo[0] || kx > cl.hi[0] || ky < cl.lo[1] || ky > cl.hi[1] || z0 > z1 {
		return nil
	}
	col := cl.offset(0, kx) | cl.offset(1, ky)
	a, _ := slices.BinarySearch(cl.ents, col|cl.offset(2, z0))
	b, _ := slices.BinarySearch(cl.ents, (col|cl.offset(2, z1)|cl.mask)+1)
	return cl.idx[a:b]
}

// around fills runs with the candidates in the 27 cells around cell c and
// returns the filled part: the nine columns (c[0]+dx, c[1]+dy, ·) with x
// outermost, each column's cells kz-1, kz, kz+1 in that order and ascending
// index within a cell. A column is one run, unless kz±1 wraps around int32
// (positions past 2³¹ cells all land in the extreme cells), where its three
// cells are not neighbours in the sorted order and make a run each. Callers
// filter by actual distance. Where the keys pack nothing wraps, and the runs
// list the candidates in ascending rank.
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

// searchLevels is how many cell sizes one density pass's search builds.
const searchLevels = 3

// searchIndex finds a density row's candidates in cells sized to its
// smoothing length, where the cell list's are 2·max h wide (DESIGN.md § Hot
// loops, "The neighbour search"): built once per pass, it is read by every
// rank that shares the pass.
type searchIndex struct {
	rank   []int32 // rank[j]: j's position in the cell list's idx
	shift  uint    // a hash's top bits pick the bucket
	levels [searchLevels]level
	pos    []data.Vec3
	ok     bool // the keys pack, so the cell list's order is rank order
}

// search is one rank's use of an index, which hands a row's candidates over
// in rank order.
type search struct {
	*searchIndex
	marks []uint64 // a row's candidates, one bit per rank
	out   []int32  // scratch for a level's fill, a bucket and a row
}

// level holds every particle by a hash of its cell 2^exp wide: bucket b is
// ents[head[b]:head[b+1]], shared by every cell that hashes to it.
type level struct {
	exp        int
	head, ents []int32
}

func newSearchIndex(n int) searchIndex {
	buckets := 1 << bits.Len(uint(n/2))
	mem := make([]int32, n+searchLevels*(n+buckets+1))
	take := func(k int) (s []int32) {
		s, mem = mem[:k:k], mem[k:]
		return s
	}
	ix := searchIndex{rank: take(n), shift: uint(65 - bits.Len(uint(buckets)))}
	for l := range ix.levels {
		ix.levels[l].head, ix.levels[l].ents = take(buckets+1), take(n)
	}
	return ix
}

func newSearch(ix *searchIndex, n int) search {
	return search{searchIndex: ix, marks: make([]uint64, (n+63)/64), out: make([]int32, n)}
}

// pow2 is 2^e for the exponents of normal numbers.
func pow2(e int) float64 { return math.Float64frombits(uint64(1023+e) << 52) }

// octave is the c with x in [2^(c−1), 2^c) for a positive normal x, and far
// outside the levels' range for anything else.
func octave(x float64) int { return int(math.Float64bits(x)>>52) - 1022 }

func (ix *searchIndex) bucket(kx, ky, kz int64, e int) int32 {
	return int32((uint64(kx)*0x9E3779B97F4A7C15 ^ uint64(ky)*0xC2B2AE3D27D4EB4F ^
		uint64(kz)*0x165667B19E3779F9 ^ uint64(e)*0xD6E8FEB86659FD93) >> ix.shift)
}

// reset builds the index for a density pass on the positions the cell list
// was just built on: the ranks, and the levels of the cell sizes the most
// of the rows whose smoothing lengths h lists need, narrower than the cell
// list's cells. out is scratch for n entries.
func (ix *searchIndex) reset(cl *cellList, h []float64, out []int32) {
	if ix.pos, ix.ok = cl.pos, cl.packed; !ix.ok {
		return
	}
	for r, j := range cl.idx {
		ix.rank[j] = int32(r)
	}
	var count [64]int
	for _, hh := range h {
		if c := octave(hh); c >= -32 && c < 32 {
			count[c+32]++
		}
	}
	for l := range ix.levels {
		k := slices.Index(count[:], slices.Max(count[:]))
		lv := &ix.levels[l]
		lv.exp = k - 31
		if count[k] <= 0 || pow2(lv.exp) >= 1/cl.inv {
			lv.exp = math.MaxInt
		} else {
			ix.fill(lv, out)
		}
		count[k] = -1
	}
	built("search")
}

// fill buckets every particle by its cell in lv.
func (ix *searchIndex) fill(lv *level, out []int32) {
	inv, n := pow2(-lv.exp), len(ix.pos)
	clear(lv.head)
	for j, p := range ix.pos {
		out[j] = ix.bucket(int64(math.Floor(p[0]*inv)), int64(math.Floor(p[1]*inv)), int64(math.Floor(p[2]*inv)), lv.exp)
		lv.head[out[j]]++
	}
	for b := 1; b < len(lv.head); b++ {
		lv.head[b] += lv.head[b-1]
	}
	for j := n - 1; j >= 0; j-- {
		lv.head[out[j]]--
		lv.ents[lv.head[out[j]]] = int32(j)
	}
	lv.head[len(lv.head)-1] = int32(n)
}

// levelFor returns the level for a row with h in [2^(c−1), 2^c): the
// smallest built from 2^(c+1), which holds its support 2h, to 2^(c+3); or
// nil.
func (ix *searchIndex) levelFor(c int) *level {
	var pick *level
	for l := range ix.levels {
		if lv := &ix.levels[l]; ix.ok && lv.exp > c && lv.exp <= c+3 && (pick == nil || lv.exp < pick.exp) {
			pick = lv
		}
	}
	return pick
}

// box returns the cells of lv that the box [p−r, p+r] overlaps, widened by
// 2⁻⁴⁰ of its extent, far above the coordinates' rounding, so that it holds
// every particle within √far of p. It reports false when far is not finite,
// or the box leaves the 27 cells of p's cell in the cell list or spans more
// than four cells a side.
func (ix *searchIndex) box(lv *level, p data.Vec3, r, far float64, cl *cellList) (from, to [3]int64, ok bool) {
	inv := pow2(-lv.exp)
	for d := 0; d < 3; d++ {
		rm := r + (math.Abs(p[d])+r)*0x1p-40
		a, b := p[d]-rm, p[d]+rm
		c := math.Floor(p[d] * cl.inv)
		fa, fb := math.Floor(a*inv), math.Floor(b*inv)
		if math.Floor(a*cl.inv) < c-1 || math.Floor(b*cl.inv) > c+1 || !(fb-fa < 4 && math.Abs(fa) < 0x1p62 && math.Abs(fb) < 0x1p62 && far < math.Inf(1)) {
			return from, to, false
		}
		from[d], to[d] = int64(fa), int64(fb)
	}
	return from, to, true
}

// mark marks every particle of lv within √far of p in the box's cells, and
// returns them in rank order as one run; a particle a hash collision brings
// from outside the box is dropped by far.
func (s *search) mark(lv *level, p data.Vec3, r, far float64, cl *cellList, runs *[27][]int32) ([][]int32, bool) {
	from, to, ok := s.box(lv, p, r, far, cl)
	if !ok {
		return nil, false
	}
	lo, hi := len(s.marks), -1
	for kx := from[0]; kx <= to[0]; kx++ {
		for ky := from[1]; ky <= to[1]; ky++ {
			for kz := from[2]; kz <= to[2]; kz++ {
				b := s.bucket(kx, ky, kz, lv.exp)
				for _, k := range s.out[:s.near(lv.ents[lv.head[b]:lv.head[b+1]], p, far)] {
					s.marks[k>>6] |= 1 << (k & 63)
					lo, hi = min(lo, int(k>>6)), max(hi, int(k>>6))
				}
			}
		}
	}
	out := s.out[:0]
	for w := lo; w <= hi; w++ {
		for m := s.marks[w]; m != 0; m &= m - 1 {
			out = append(out, cl.idx[w<<6|bits.TrailingZeros64(m)])
		}
		s.marks[w] = 0
	}
	runs[0] = out
	return runs[:1], true
}

// near writes the ranks of the particles ents lists to out, those within √far
// of p first, and returns how many are. Only the count depends on the test,
// which most candidates fail, at random: a branch on it would mispredict.
func (s *search) near(ents []int32, p data.Vec3, far float64) int {
	pos, rank, out, m := s.pos, s.rank, s.out[:len(ents)], 0
	for _, j := range ents {
		pj := &pos[j]
		x, y, z := pj[0]-p[0], pj[1]-p[1], pj[2]-p[2]
		out[m] = rank[j]
		if x*x+y*y+z*z <= far {
			m++
		}
	}
	return m
}
