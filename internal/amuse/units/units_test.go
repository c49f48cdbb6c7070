package units

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestDimString(t *testing.T) {
	cases := []struct {
		d    Dim
		want string
	}{
		{Dimensionless, "1"},
		{Dim{Mass: 1}, "kg"},
		{Dim{Mass: 1, Length: 2, Time: -3}, "kg m^2 s^-3"},
		{Dim{Temp: 1}, "K"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.d, got, c.want)
		}
	}
}

func TestConvertLength(t *testing.T) {
	pc := New(1, Parsec)
	inAU, err := pc.In(AU)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(inAU.Value, 206264.8, 1e-4) {
		t.Fatalf("1 pc = %v AU, want ~206265", inAU.Value)
	}
}

func TestConvertRejectsWrongDimension(t *testing.T) {
	v := New(3, KmS)
	if _, err := v.In(Kg); !errors.Is(err, ErrDimension) {
		t.Fatalf("km/s -> kg: err = %v, want ErrDimension", err)
	}
	if _, err := v.In(MS); err != nil {
		t.Fatalf("km/s -> m/s must work: %v", err)
	}
}

func TestAddSub(t *testing.T) {
	a := New(1, Myr)
	b := New(500_000, Yr)
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sum.Value, 1.5, 1e-12) || sum.Unit.Symbol != "Myr" {
		t.Fatalf("1 Myr + 0.5 Myr = %v", sum)
	}
	diff, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(diff.Value, 0.5, 1e-12) {
		t.Fatalf("1 Myr - 0.5 Myr = %v", diff)
	}
	if _, err := a.Add(New(1, Kg)); !errors.Is(err, ErrDimension) {
		t.Fatalf("Myr + kg: err = %v", err)
	}
}

func TestMulDivDimensions(t *testing.T) {
	v := New(2, KmS)
	tt := New(3, S)
	dist := v.Mul(tt)
	if dist.Unit.Dim != (Dim{Length: 1}) {
		t.Fatalf("velocity*time dim = %v", dist.Unit.Dim)
	}
	if got := dist.SI(); !almost(got, 6000, 1e-12) {
		t.Fatalf("2 km/s * 3 s = %v m", got)
	}
	back := dist.Div(tt)
	if back.Unit.Dim != (Dim{Length: 1, Time: -1}) {
		t.Fatalf("dist/time dim = %v", back.Unit.Dim)
	}
}

func TestKineticEnergyDimensions(t *testing.T) {
	// (1/2) m v^2 must land in joules.
	m := New(1, MSun)
	v := New(10, KmS)
	e := m.Mul(v).Mul(v).Scale(0.5)
	inJ, err := e.In(J)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 1.98892e30 * 1e8
	if !almost(inJ.Value, want, 1e-9) {
		t.Fatalf("KE = %v J, want %v", inJ.Value, want)
	}
}

func TestQuantityString(t *testing.T) {
	if s := New(2.5, MSun).String(); s != "2.5 MSun" {
		t.Fatalf("got %q", s)
	}
	if s := New(3, None).String(); s != "3" {
		t.Fatalf("dimensionless: %q", s)
	}
}

func TestConverterGIsOne(t *testing.T) {
	c, err := NewConverter(New(1000, MSun), New(1, Parsec))
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.ToNBody(G)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(g, 1, 1e-12) {
		t.Fatalf("G in N-body units = %v, want 1", g)
	}
}

func TestConverterRoundTrip(t *testing.T) {
	c, err := NewConverter(New(1000, MSun), New(1, Parsec))
	if err != nil {
		t.Fatal(err)
	}
	v := New(2.5, KmS)
	nb, err := c.ToNBody(v)
	if err != nil {
		t.Fatal(err)
	}
	// One N-body velocity unit is length scale / time scale.
	back := nb * c.length / c.time / KmS.Scale
	if !almost(back, 2.5, 1e-12) {
		t.Fatalf("round trip 2.5 km/s -> %v", back)
	}
}

func TestConverterRejectsTemperature(t *testing.T) {
	c, err := NewConverter(New(1, MSun), New(1, AU))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ToNBody(New(5000, K)); !errors.Is(err, ErrDimension) {
		t.Fatalf("temperature to N-body: %v", err)
	}
}

func TestConverterRejectsBadScales(t *testing.T) {
	if _, err := NewConverter(New(-1, MSun), New(1, Parsec)); err == nil {
		t.Fatal("negative mass scale accepted")
	}
	if _, err := NewConverter(New(1, KmS), New(1, Parsec)); err == nil {
		t.Fatal("velocity as mass scale accepted")
	}
}

func TestConverterTimeScale(t *testing.T) {
	// For 1 MSun at 1 AU the N-body time unit is the orbital period / 2π:
	// ~0.159155 yr.
	c, err := NewConverter(New(1, MSun), New(1, AU))
	if err != nil {
		t.Fatal(err)
	}
	perYr, err := c.ToNBody(New(1, Yr)) // N-body time units in one year
	if err != nil {
		t.Fatal(err)
	}
	if yr := 1 / perYr; !almost(yr, 1/(2*math.Pi), 1e-3) {
		t.Fatalf("time unit = %v yr, want ~%v", yr, 1/(2*math.Pi))
	}
}

// Property: In() preserves the SI value exactly up to float rounding.
func TestConversionPreservesSI(t *testing.T) {
	unitsOfLength := []Unit{M, Km, AU, Parsec, LY, RSun}
	f := func(v float64, pick uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		u := unitsOfLength[int(pick)%len(unitsOfLength)]
		q := New(v, u)
		for _, target := range unitsOfLength {
			out, err := q.In(target)
			if err != nil {
				return false
			}
			if q.SI() == 0 {
				if out.SI() != 0 {
					return false
				}
				continue
			}
			if !almost(out.SI(), q.SI(), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: dimension algebra is a group action — Mul then Div returns the
// original dimension, and Div by itself the zero dimension.
func TestDimAlgebraProperty(t *testing.T) {
	f := func(m1, l1, t1, m2, l2, t2 int8) bool {
		// Keep exponents small so int8 arithmetic cannot overflow.
		clamp := func(x int8) int8 { return x % 5 }
		a := Dim{clamp(m1), clamp(l1), clamp(t1), 0}
		b := Dim{clamp(m2), clamp(l2), clamp(t2), 0}
		if a.Mul(b).Div(b) != a {
			return false
		}
		return a.Div(a) == Dimensionless
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedUnitHelpers(t *testing.T) {
	kmPerHour := Per(Km, Hour)
	q := New(36, kmPerHour)
	ms, err := q.ValueIn(MS)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ms, 10, 1e-12) {
		t.Fatalf("36 km/h = %v m/s", ms)
	}
	area := Times(Km, Km)
	if area.Dim != (Dim{Length: 2}) {
		t.Fatalf("km^2 dim = %v", area.Dim)
	}
	if area.Scale != 1e6 {
		t.Fatalf("km^2 scale = %v", area.Scale)
	}
}
