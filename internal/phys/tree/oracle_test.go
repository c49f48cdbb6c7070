package tree

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
)

// The octree and traversal as they stood before the flat build (PR 15),
// bodies verbatim: bodies inserted one by one into per-leaf slices, sums
// added through pointers. The tests below hold the flat tree to them bit for
// bit.

type oracleNode struct {
	center   data.Vec3
	half     float64
	mass     float64
	com      data.Vec3
	children [8]int32
	bodies   []int32
	leaf     bool
}

type oracleTree struct {
	nodes []oracleNode
	mass  []float64
	pos   []data.Vec3
}

func oracleBuild(mass []float64, pos []data.Vec3) *oracleTree {
	t := &oracleTree{mass: mass, pos: pos}
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

	t.nodes = append(t.nodes, oracleNode{center: center, half: half, leaf: true})
	t.nodes[0].children = oracleNoChildren()
	for i := range pos {
		t.insert(0, int32(i), 0)
	}
	t.summarize(0)
	return t
}

func oracleNoChildren() [8]int32 {
	return [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}
}

func (t *oracleTree) insert(ni int32, body int32, depth int) {
	n := &t.nodes[ni]
	if n.leaf {
		if len(n.bodies) < leafCap || depth >= maxDepth {
			n.bodies = append(n.bodies, body)
			return
		}
		// Split: push existing bodies down.
		old := n.bodies
		n.bodies = nil
		n.leaf = false
		for _, b := range old {
			t.pushDown(ni, b, depth)
		}
	}
	t.pushDown(ni, body, depth)
}

func (t *oracleTree) pushDown(ni int32, body int32, depth int) {
	// Note: t.nodes may be reallocated by append, so re-take pointers.
	o := octant(t.nodes[ni].center, t.pos[body])
	ci := t.nodes[ni].children[o]
	if ci < 0 {
		parent := t.nodes[ni]
		h := parent.half / 2
		cc := parent.center
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
		ci = int32(len(t.nodes))
		t.nodes = append(t.nodes, oracleNode{center: cc, half: h, leaf: true, children: oracleNoChildren()})
		t.nodes[ni].children[o] = ci
	}
	t.insert(ci, body, depth+1)
}

func (t *oracleTree) summarize(ni int32) (float64, data.Vec3) {
	n := &t.nodes[ni]
	if n.leaf {
		var m float64
		var com data.Vec3
		for _, b := range n.bodies {
			m += t.mass[b]
			com = com.Add(t.pos[b].Scale(t.mass[b]))
		}
		n.mass = m
		if m > 0 {
			n.com = com.Scale(1 / m)
		} else {
			n.com = n.center
		}
		return n.mass, n.com.Scale(n.mass)
	}
	var m float64
	var wcom data.Vec3
	for _, ci := range n.children {
		if ci < 0 {
			continue
		}
		cm, cwcom := t.summarize(ci)
		m += cm
		wcom = wcom.Add(cwcom)
	}
	n.mass = m
	if m > 0 {
		n.com = wcom.Scale(1 / m)
	} else {
		n.com = n.center
	}
	return n.mass, wcom
}

func (t *oracleTree) accelAt(p data.Vec3, eps2, theta float64, acc *data.Vec3, pot *float64) int {
	if len(t.nodes) == 0 {
		return 0
	}
	theta2 := theta * theta
	inter := 0
	// Explicit stack; deterministic depth-first order.
	stack := make([]int32, 0, 128)
	stack = append(stack, 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[ni]
		if n.mass == 0 {
			continue
		}
		dp := n.com.Sub(p)
		r2 := dp.Norm2()
		size := 2 * n.half
		if n.leaf || size*size < theta2*r2 {
			if n.leaf {
				for _, b := range n.bodies {
					db := t.pos[b].Sub(p)
					r2b := db.Norm2() + eps2
					if r2b == 0 {
						continue
					}
					r := math.Sqrt(r2b)
					rinv := 1 / r
					mr3 := t.mass[b] * rinv * rinv * rinv
					acc[0] += mr3 * db[0]
					acc[1] += mr3 * db[1]
					acc[2] += mr3 * db[2]
					*pot -= t.mass[b] * rinv
					inter++
				}
				continue
			}
			r2e := r2 + eps2
			r := math.Sqrt(r2e)
			rinv := 1 / r
			mr3 := n.mass * rinv * rinv * rinv
			acc[0] += mr3 * dp[0]
			acc[1] += mr3 * dp[1]
			acc[2] += mr3 * dp[2]
			*pot -= n.mass * rinv
			inter++
			continue
		}
		// Push children in reverse so traversal visits octant 0 first.
		for c := 7; c >= 0; c-- {
			if ci := n.children[c]; ci >= 0 {
				stack = append(stack, ci)
			}
		}
	}
	return inter
}

// oracleInputs are the body sets both trees are built over: a Plummer sphere
// with a few bodies thrown far out (deep, lopsided trees), a uniform sphere,
// and clumps of coincident points, which only the maxDepth leaf can hold.
func oracleInputs(seed int64) map[string]*data.Particles {
	rng := rand.New(rand.NewSource(seed))
	plummer := ic.Plummer(600+rng.Intn(600), seed)
	for k := 0; k < 5; k++ {
		i := rng.Intn(plummer.Len())
		plummer.Pos[i] = plummer.Pos[i].Scale(math.Pow(10, 1+3*rng.Float64()))
	}
	clumps := ic.UniformSphere(200, 1, 1, seed)
	for i := range clumps.Pos {
		if i%20 != 0 {
			clumps.Pos[i] = clumps.Pos[i-i%20] // 19 copies of every twentieth body
		}
	}
	clumps.Mass[3] = 0
	return map[string]*data.Particles{
		"plummer-outliers": plummer,
		"uniform":          ic.UniformSphere(300+rng.Intn(900), 1, 2, seed+1),
		"coincident":       clumps,
		"tiny":             ic.Plummer(1+rng.Intn(leafCap), seed+2),
	}
}

// exactArithmetic skips a bit-for-bit comparison off amd64: where the
// compiler fuses a multiply into an add (arm64, ppc64le, s390x, riscv64) two
// spellings of one expression may round differently.
func exactArithmetic(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit comparison needs unfused multiply-adds (amd64)")
	}
}

// sameTopology walks both trees depth first by octant and compares every
// cell: size, mass, centre of mass (a massless cell's is its geometric
// centre), which children exist, and a leaf's bodies in order.
func sameTopology(t *testing.T, got *Tree, want *oracleTree, gi, wi int32) {
	t.Helper()
	g, w := &got.nodes[gi], &want.nodes[wi]
	if g.half != w.half || g.mass != w.mass || g.com != w.com || (g.count > 0) != w.leaf {
		t.Fatalf("node %d: got half %v mass %v com %v leaf %v, oracle node %d has %v %v %v %v",
			gi, g.half, g.mass, g.com, g.count > 0, wi, w.half, w.mass, w.com, w.leaf)
	}
	bodies := got.order[g.first : g.first+g.count]
	if len(bodies) != len(w.bodies) {
		t.Fatalf("node %d: %d bodies, oracle %d", gi, len(bodies), len(w.bodies))
	}
	for k := range bodies {
		if bodies[k] != w.bodies[k] {
			t.Fatalf("node %d: leaf order %v, oracle %v", gi, bodies, w.bodies)
		}
	}
	for o := 0; o < 8; o++ {
		gc, wc := g.children[o], w.children[o]
		if (gc < 0) != (wc < 0) {
			t.Fatalf("node %d octant %d: child present %v, oracle %v", gi, o, gc >= 0, wc >= 0)
		}
		if gc >= 0 {
			sameTopology(t, got, want, gc, wc)
		}
	}
}

func TestBuildMatchesOracle(t *testing.T) {
	exactArithmetic(t)
	for seed := int64(1); seed <= 4; seed++ {
		for name, p := range oracleInputs(seed) {
			got, want := Build(p.Mass, p.Pos), oracleBuild(p.Mass, p.Pos)
			if got.Nodes() != len(want.nodes) {
				t.Fatalf("%s seed %d: %d nodes, oracle %d", name, seed, got.Nodes(), len(want.nodes))
			}
			sameTopology(t, got, want, 0, 0)
			if name == "coincident" {
				over := 0
				for _, n := range got.nodes {
					if n.count > leafCap {
						over++
					}
				}
				if over == 0 {
					t.Fatalf("seed %d: no leaf above leafCap, the maxDepth leaf was not built", seed)
				}
			}
		}
	}
}

func TestAccelMatchesOracle(t *testing.T) {
	exactArithmetic(t)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for name, p := range oracleInputs(seed) {
			got, want := Build(p.Mass, p.Pos), oracleBuild(p.Mass, p.Pos)
			// The sources themselves (zero separations), and points
			// inside and far outside the body set.
			targets := append([]data.Vec3(nil), p.Pos...)
			for k := 0; k < 200; k++ {
				s := math.Pow(10, 4*rng.Float64()-2)
				targets = append(targets, data.Vec3{s * rng.NormFloat64(), s * rng.NormFloat64(), s * rng.NormFloat64()})
			}
			for _, arm := range []struct{ eps, theta float64 }{{0.05, 0.6}, {0, 0.6}, {0.01, 0}, {0.01, 1.2}} {
				acc := make([]data.Vec3, len(targets))
				pot := make([]float64, len(targets))
				flops := got.Accel(targets, arm.eps, arm.theta, acc, pot)
				total := 0
				for i, p := range targets {
					var a data.Vec3
					var ph float64
					total += want.accelAt(p, arm.eps*arm.eps, arm.theta, &a, &ph)
					if math.Float64bits(a[0]) != math.Float64bits(acc[i][0]) ||
						math.Float64bits(a[1]) != math.Float64bits(acc[i][1]) ||
						math.Float64bits(a[2]) != math.Float64bits(acc[i][2]) ||
						math.Float64bits(ph) != math.Float64bits(pot[i]) {
						t.Fatalf("%s seed %d eps %g theta %g target %d: acc %v pot %v, oracle %v %v",
							name, seed, arm.eps, arm.theta, i, acc[i], pot[i], a, ph)
					}
				}
				if want := FlopsPerInteraction * float64(total); flops != want {
					t.Fatalf("%s seed %d eps %g theta %g: %v flops, oracle %v", name, seed, arm.eps, arm.theta, flops, want)
				}
			}
		}
	}
}
