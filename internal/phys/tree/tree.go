// Package tree implements Barnes–Hut octree gravity — the reproduction's
// equivalent of the paper's coupling kernels: Octgrav (C++/CUDA tree code)
// and Fi (Fortran tree code). Both kernels here share one traversal, so
// switching between them (Multi-Kernel) changes performance only; the paper
// uses exactly this pair to couple gas and stellar gravity when a GPU is or
// is not available.
package tree

import (
	"context"
	"math"
	"runtime"
	"sync"

	"jungle/internal/amuse/data"
	"jungle/internal/vtime"
)

// FlopsPerInteraction is the accounted cost of one target↔node (or
// target↔body) interaction during traversal.
const FlopsPerInteraction = 24

// leafCap is the maximum number of bodies stored in a leaf node.
const leafCap = 8

// maxDepth bounds subdivision for coincident points.
const maxDepth = 64

// node is one octree cell. A leaf holds the bodies
// Tree.order[first:first+count], at least one; an internal cell has count 0.
// The nodes are stored in preorder, octants 0–7 depth first, so a cell's
// first child is the next node and next is the index just past its subtree:
// a walk that opens a cell continues at i+1, and one that accepts or skips
// it jumps to next.
type node struct {
	size2        float64 // (side length)², the opening test's left side
	mass         float64
	com          data.Vec3 // center of mass
	next         int32
	first, count int32
}

// Tree is an immutable octree over a set of source bodies. Nodes and leaf
// payloads live in two flat arrays sized when the tree is built.
type Tree struct {
	nodes []node
	order []int32 // body indices grouped by leaf, ascending within a leaf
	mass  []float64
	pos   []data.Vec3
}

// Build constructs the octree over the given bodies: a cell holding more
// than leafCap bodies (above maxDepth) splits into its non-empty octants.
func Build(mass []float64, pos []data.Vec3) *Tree {
	t := &Tree{mass: mass, pos: pos}
	if len(pos) == 0 {
		return t
	}
	// Bounding cube.
	lo, hi := pos[0], pos[0]
	for _, p := range pos {
		for d := 0; d < 3; d++ {
			if p[d] < lo[d] {
				lo[d] = p[d]
			}
			if p[d] > hi[d] {
				hi[d] = p[d]
			}
		}
	}
	center := lo.Add(hi).Scale(0.5)
	half := 0.0
	for d := 0; d < 3; d++ {
		if h := (hi[d] - lo[d]) / 2; h > half {
			half = h
		}
	}
	if half == 0 {
		half = 1e-9
	}
	half *= 1.0001 // keep boundary bodies strictly inside

	n := len(pos)
	buf := make([]int32, 2*n) // the body order, then the partition scratch
	t.order = buf[:n:n]
	for i := range t.order {
		t.order[i] = int32(i)
	}
	// Plummer and uniform spheres of 20 to 100 000 bodies come to 0.3–0.5 n
	// nodes; the rare set above that, and chains of single-child cells over
	// near-coincident bodies, grow the array.
	t.nodes = make([]node, 0, n/2+8)
	t.split(0, n, center, half, 0, buf[n:])
	return t
}

// octant returns which child octant p falls into relative to center.
func octant(center, p data.Vec3) int {
	o := 0
	if p[0] >= center[0] {
		o |= 1
	}
	if p[1] >= center[1] {
		o |= 2
	}
	if p[2] >= center[2] {
		o |= 4
	}
	return o
}

// split appends the cell over the bodies order[lo:hi] and, recursively, its
// subtree, and returns the cell's mass and mass-weighted position sum. The
// bodies are partitioned by octant through tmp, keeping their order, so
// every leaf lists its bodies by ascending index.
func (t *Tree) split(lo, hi int, center data.Vec3, half float64, depth int, tmp []int32) (float64, data.Vec3) {
	ni := int32(len(t.nodes))
	size := 2 * half
	t.nodes = append(t.nodes, node{size2: size * size, next: ni + 1})
	if hi-lo <= leafCap || depth >= maxDepth {
		var m float64
		var com data.Vec3
		for _, b := range t.order[lo:hi] {
			m += t.mass[b]
			com = com.Add(t.pos[b].Scale(t.mass[b]))
		}
		n := &t.nodes[ni]
		n.first, n.count = int32(lo), int32(hi-lo)
		n.mass = m
		if m > 0 {
			n.com = com.Scale(1 / m)
		} else {
			n.com = center
		}
		return m, n.com.Scale(m)
	}

	var start [9]int
	for _, b := range t.order[lo:hi] {
		start[octant(center, t.pos[b])+1]++
	}
	for o := 0; o < 8; o++ {
		start[o+1] += start[o]
	}
	next := start
	for _, b := range t.order[lo:hi] {
		o := octant(center, t.pos[b])
		tmp[lo+next[o]] = b
		next[o]++
	}
	copy(t.order[lo:hi], tmp[lo:hi])

	h := half / 2
	var m float64
	var wcom data.Vec3
	for o := 0; o < 8; o++ {
		if start[o] == start[o+1] {
			continue
		}
		cc := center
		if o&1 != 0 {
			cc[0] += h
		} else {
			cc[0] -= h
		}
		if o&2 != 0 {
			cc[1] += h
		} else {
			cc[1] -= h
		}
		if o&4 != 0 {
			cc[2] += h
		} else {
			cc[2] -= h
		}
		cm, cwcom := t.split(lo+start[o], lo+start[o+1], cc, h, depth+1, tmp)
		m += cm
		wcom = wcom.Add(cwcom)
	}
	n := &t.nodes[ni]
	n.next = int32(len(t.nodes))
	n.mass = m
	if m > 0 {
		n.com = wcom.Scale(1 / m)
	} else {
		n.com = center
	}
	return m, wcom
}

// accelAt walks the tree for one target point and returns the acceleration,
// the potential and the interactions counted. Sums are kept in locals and in
// the order of the depth-first walk, which the preorder layout makes a single
// forward pass over the node array.
func (t *Tree) accelAt(p data.Vec3, eps2, theta float64) (data.Vec3, float64, int) {
	theta2 := theta * theta
	px, py, pz := p[0], p[1], p[2]
	var ax, ay, az, pot float64
	inter := 0
	for i := int32(0); int(i) < len(t.nodes); {
		n := &t.nodes[i]
		if n.mass == 0 {
			i = n.next
			continue
		}
		if n.count > 0 { // leaf
			for _, b := range t.order[n.first : n.first+n.count] {
				pb := &t.pos[b]
				dx, dy, dz := pb[0]-px, pb[1]-py, pb[2]-pz
				r2b := dx*dx + dy*dy + dz*dz + eps2
				if r2b == 0 {
					continue
				}
				r := math.Sqrt(r2b)
				rinv := 1 / r
				mb := t.mass[b]
				mr3 := mb * rinv * rinv * rinv
				ax += mr3 * dx
				ay += mr3 * dy
				az += mr3 * dz
				pot -= mb * rinv
				inter++
			}
			i = n.next
			continue
		}
		dx, dy, dz := n.com[0]-px, n.com[1]-py, n.com[2]-pz
		r2 := dx*dx + dy*dy + dz*dz
		if n.size2 < theta2*r2 {
			r2e := r2 + eps2
			r := math.Sqrt(r2e)
			rinv := 1 / r
			mr3 := n.mass * rinv * rinv * rinv
			ax += mr3 * dx
			ay += mr3 * dy
			az += mr3 * dz
			pot -= n.mass * rinv
			inter++
			i = n.next
			continue
		}
		i++ // open the cell: its first child follows it
	}
	return data.Vec3{ax, ay, az}, pot, inter
}

// Accel evaluates acceleration and potential at every target point with
// opening angle theta and Plummer softening eps; a nil pot skips storing
// the potential. Targets are processed in parallel; each target's
// traversal is deterministic. Returns the accounted flop count.
func (t *Tree) Accel(targets []data.Vec3, eps, theta float64, acc []data.Vec3, pot []float64) float64 {
	n := len(targets)
	if n == 0 {
		return 0
	}
	eps2 := eps * eps
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	interactions := make([]int, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			total := 0
			for i := lo; i < hi; i++ {
				a, p, inter := t.accelAt(targets[i], eps2, theta)
				acc[i] = a
				if pot != nil {
					pot[i] = p
				}
				total += inter
			}
			interactions[w] = total
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, x := range interactions {
		total += x
	}
	return FlopsPerInteraction * float64(total)
}

// Kernel is a named, device-accounted tree-gravity variant.
type Kernel struct {
	name  string
	dev   *vtime.Device
	Theta float64 // opening angle (default 0.6)
}

// NewOctgrav returns the GPU tree kernel (the paper's Octgrav).
func NewOctgrav(dev *vtime.Device) *Kernel {
	return &Kernel{name: "octgrav", dev: dev, Theta: 0.6}
}

// NewFi returns the CPU tree kernel (the paper's Fi).
func NewFi(dev *vtime.Device) *Kernel {
	return &Kernel{name: "fi", dev: dev, Theta: 0.6}
}

// Name returns the kernel name.
func (k *Kernel) Name() string { return k.name }

// FieldAt builds a tree over the sources and evaluates the field at the
// targets. It returns the accelerations, potentials and accounted flops
// (tree build cost ≈ N log N is folded in at 40 flops per body-level).
// One evaluation is a single kernel launch; the context is only checked
// on entry.
func (k *Kernel) FieldAt(ctx context.Context, srcMass []float64, srcPos, targets []data.Vec3, eps float64) ([]data.Vec3, []float64, float64) {
	if ctx.Err() != nil {
		return make([]data.Vec3, len(targets)), make([]float64, len(targets)), 0
	}
	tr := Build(srcMass, srcPos)
	acc := make([]data.Vec3, len(targets))
	pot := make([]float64, len(targets))
	flops := tr.Accel(targets, eps, k.Theta, acc, pot)
	if n := len(srcPos); n > 1 {
		flops += 40 * float64(n) * math.Log2(float64(n))
	}
	return acc, pot, flops
}
