// Package units implements AMUSE's checked unit system. The paper stresses
// that "with the large number of units used in astronomy, checked conversion
// of all these units is a requirement for combining different models": every
// quantity carries its dimension, conversions between incompatible
// dimensions fail loudly, and an N-body converter maps between physical and
// dimensionless (G=1) units the way AMUSE's nbody_system module does.
package units

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimension is wrapped by all dimension-mismatch errors.
var ErrDimension = errors.New("units: dimension mismatch")

// Dim is a dimension vector over the SI base dimensions this domain needs:
// mass, length, time and temperature.
type Dim struct {
	Mass, Length, Time, Temp int8
}

// Dimensionless is the zero dimension.
var Dimensionless = Dim{}

// Mul returns the dimension of a product.
func (d Dim) Mul(o Dim) Dim {
	return Dim{d.Mass + o.Mass, d.Length + o.Length, d.Time + o.Time, d.Temp + o.Temp}
}

// Div returns the dimension of a quotient.
func (d Dim) Div(o Dim) Dim {
	return Dim{d.Mass - o.Mass, d.Length - o.Length, d.Time - o.Time, d.Temp - o.Temp}
}

// String renders the dimension as base-unit factors, e.g. "kg m^2 s^-3".
func (d Dim) String() string {
	if d == Dimensionless {
		return "1"
	}
	var parts []string
	add := func(sym string, p int8) {
		switch {
		case p == 1:
			parts = append(parts, sym)
		case p != 0:
			parts = append(parts, fmt.Sprintf("%s^%d", sym, p))
		}
	}
	add("kg", d.Mass)
	add("m", d.Length)
	add("s", d.Time)
	add("K", d.Temp)
	return strings.Join(parts, " ")
}

// Unit is a named scale of a dimension. Scale converts a value in this unit
// to SI base units.
type Unit struct {
	Symbol string
	Dim    Dim
	Scale  float64
}

// String returns the unit symbol.
func (u Unit) String() string { return u.Symbol }

// Derived returns a derived unit: (symbol, factor × base).
func Derived(symbol string, factor float64, base Unit) Unit {
	return Unit{Symbol: symbol, Dim: base.Dim, Scale: factor * base.Scale}
}

// Per builds the quotient unit a/b.
func Per(a, b Unit) Unit {
	return Unit{Symbol: a.Symbol + "/" + b.Symbol, Dim: a.Dim.Div(b.Dim), Scale: a.Scale / b.Scale}
}

// Times builds the product unit a·b.
func Times(a, b Unit) Unit {
	return Unit{Symbol: a.Symbol + "*" + b.Symbol, Dim: a.Dim.Mul(b.Dim), Scale: a.Scale * b.Scale}
}

// SI base and astronomy units.
var (
	None = Unit{Symbol: "", Dim: Dimensionless, Scale: 1}

	Kg = Unit{Symbol: "kg", Dim: Dim{Mass: 1}, Scale: 1}
	M  = Unit{Symbol: "m", Dim: Dim{Length: 1}, Scale: 1}
	S  = Unit{Symbol: "s", Dim: Dim{Time: 1}, Scale: 1}
	K  = Unit{Symbol: "K", Dim: Dim{Temp: 1}, Scale: 1}

	Km     = Derived("km", 1e3, M)
	AU     = Derived("AU", 1.495978707e11, M)
	Parsec = Derived("pc", 3.0856775814913673e16, M)
	LY     = Derived("ly", 9.4607304725808e15, M)

	MSun = Derived("MSun", 1.98892e30, Kg)
	RSun = Derived("RSun", 6.957e8, M)

	Yr   = Derived("yr", 3.15576e7, S)
	Myr  = Derived("Myr", 1e6*3.15576e7, S)
	Gyr  = Derived("Gyr", 1e9*3.15576e7, S)
	Day  = Derived("day", 86400, S)
	Hour = Derived("hour", 3600, S)

	MS  = Per(M, S)                // m/s
	KmS = Derived("km/s", 1e3, MS) // km/s
	J   = Unit{"J", Dim{Mass: 1, Length: 2, Time: -2}, 1}
	W   = Unit{"W", Dim{Mass: 1, Length: 2, Time: -3}, 1}
	Erg = Derived("erg", 1e-7, J)
	// LSun is the solar luminosity.
	LSun = Derived("LSun", 3.828e26, W)
	// GUnit is the dimension/scale of Newton's constant.
	GUnit = Unit{"m^3/(kg s^2)", Dim{Mass: -1, Length: 3, Time: -2}, 1}
)

// GValue is Newton's gravitational constant in SI.
const GValue = 6.6743e-11

// G is Newton's constant as a checked quantity.
var G = Quantity{Value: GValue, Unit: GUnit}

// Quantity is a value with a unit. The zero value is a dimensionless zero.
type Quantity struct {
	Value float64
	Unit  Unit
}

// New returns value×unit as a quantity.
func New(value float64, unit Unit) Quantity { return Quantity{Value: value, Unit: unit} }

// SI returns the value converted to SI base units.
func (q Quantity) SI() float64 { return q.Value * q.Unit.Scale }

// In converts the quantity to another unit of the same dimension.
func (q Quantity) In(u Unit) (Quantity, error) {
	if q.Unit.Dim != u.Dim {
		return Quantity{}, fmt.Errorf("%w: cannot convert %s [%s] to %s [%s]",
			ErrDimension, q.Unit.Symbol, q.Unit.Dim, u.Symbol, u.Dim)
	}
	return Quantity{Value: q.SI() / u.Scale, Unit: u}, nil
}

// ValueIn returns the numeric value of the quantity expressed in u.
func (q Quantity) ValueIn(u Unit) (float64, error) {
	out, err := q.In(u)
	if err != nil {
		return 0, err
	}
	return out.Value, nil
}

// Add returns q+o (converted to q's unit).
func (q Quantity) Add(o Quantity) (Quantity, error) {
	oc, err := o.In(q.Unit)
	if err != nil {
		return Quantity{}, fmt.Errorf("add: %w", err)
	}
	return Quantity{Value: q.Value + oc.Value, Unit: q.Unit}, nil
}

// Sub returns q-o (converted to q's unit).
func (q Quantity) Sub(o Quantity) (Quantity, error) {
	oc, err := o.In(q.Unit)
	if err != nil {
		return Quantity{}, fmt.Errorf("sub: %w", err)
	}
	return Quantity{Value: q.Value - oc.Value, Unit: q.Unit}, nil
}

// Mul returns the product q·o with the combined unit.
func (q Quantity) Mul(o Quantity) Quantity {
	return Quantity{Value: q.Value * o.Value, Unit: Times(q.Unit, o.Unit)}
}

// Div returns the quotient q/o with the combined unit.
func (q Quantity) Div(o Quantity) Quantity {
	return Quantity{Value: q.Value / o.Value, Unit: Per(q.Unit, o.Unit)}
}

// Scale multiplies by a dimensionless factor.
func (q Quantity) Scale(f float64) Quantity {
	return Quantity{Value: q.Value * f, Unit: q.Unit}
}

// String renders "value symbol".
func (q Quantity) String() string {
	if q.Unit.Symbol == "" {
		return fmt.Sprintf("%g", q.Value)
	}
	return fmt.Sprintf("%g %s", q.Value, q.Unit.Symbol)
}

// Converter maps between physical units and dimensionless N-body units with
// G=1, defined by a chosen mass and length scale (AMUSE's
// nbody_system.nbody_to_si). The derived time unit is sqrt(L³/(G·M)).
type Converter struct {
	mass, length, time float64 // SI values of one N-body unit
}

// NewConverter builds a converter from a mass and a length quantity.
func NewConverter(mass, length Quantity) (*Converter, error) {
	m, err := mass.ValueIn(Kg)
	if err != nil {
		return nil, fmt.Errorf("units: converter mass: %w", err)
	}
	l, err := length.ValueIn(M)
	if err != nil {
		return nil, fmt.Errorf("units: converter length: %w", err)
	}
	if m <= 0 || l <= 0 {
		return nil, fmt.Errorf("units: converter scales must be positive (mass %g kg, length %g m)", m, l)
	}
	return &Converter{mass: m, length: l, time: math.Sqrt(l * l * l / (GValue * m))}, nil
}

// scaleFor returns the SI value of one N-body unit of the given dimension.
func (c *Converter) scaleFor(d Dim) float64 {
	return math.Pow(c.mass, float64(d.Mass)) *
		math.Pow(c.length, float64(d.Length)) *
		math.Pow(c.time, float64(d.Time))
}

// ToNBody converts a physical quantity to its dimensionless N-body value.
// Temperature has no N-body scale and is rejected.
func (c *Converter) ToNBody(q Quantity) (float64, error) {
	if q.Unit.Dim.Temp != 0 {
		return 0, fmt.Errorf("%w: temperature has no N-body scale", ErrDimension)
	}
	return q.SI() / c.scaleFor(q.Unit.Dim), nil
}
