package data

import "math"

// Vec3 is a 3-component Cartesian vector. Physics kernels operate on slices
// of Vec3 in structure-of-arrays style particle sets.
type Vec3 [3]float64

// Add returns v+o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v[0] + o[0], v[1] + o[1], v[2] + o[2]} }

// Sub returns v-o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v[0] - o[0], v[1] - o[1], v[2] - o[2]} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns the inner product.
func (v Vec3) Dot(o Vec3) float64 { return v[0]*o[0] + v[1]*o[1] + v[2]*o[2] }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Norm2()) }
