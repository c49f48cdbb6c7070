package stellar

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLifetimeDecreasesWithMass(t *testing.T) {
	s := New()
	prev := math.Inf(1)
	for _, m := range []float64{0.5, 1, 2, 5, 10, 25, 50} {
		lt := s.MSLifetime(m)
		if lt >= prev {
			t.Fatalf("lifetime at %v MSun (%v) not below %v", m, lt, prev)
		}
		prev = lt
	}
	if lt := s.MSLifetime(1); math.Abs(lt-1e4) > 1 {
		t.Fatalf("solar MS lifetime = %v Myr, want 10^4", lt)
	}
	if lt := s.MSLifetime(100); lt < 3 {
		t.Fatalf("massive star lifetime floor broken: %v", lt)
	}
}

func TestNewStarValidation(t *testing.T) {
	s := New()
	if _, err := s.NewStar(0.01); err == nil {
		t.Fatal("brown dwarf accepted")
	}
	if _, err := s.NewStar(200); err == nil {
		t.Fatal("200 MSun accepted")
	}
	st, err := s.NewStar(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != MainSequence || st.Mass != 1 {
		t.Fatalf("ZAMS star: %+v", st)
	}
	// Solar observables at ZAMS: L ~ 1 LSun, R ~ 1 RSun, T ~ 5772 K.
	if math.Abs(st.Luminosity-1) > 0.01 || math.Abs(st.Radius-1) > 0.01 {
		t.Fatalf("solar L/R: %v, %v", st.Luminosity, st.Radius)
	}
	if st.Temperature < 5000 || st.Temperature > 6500 {
		t.Fatalf("solar T = %v", st.Temperature)
	}
}

func TestSunIsStillMainSequenceAt5Gyr(t *testing.T) {
	s := New()
	st, _ := s.NewStar(1)
	s.Evolve(&st, 5000)
	if st.Type != MainSequence {
		t.Fatalf("sun at 5 Gyr: %v", st.Type)
	}
	if st.Supernova {
		t.Fatal("sun exploded")
	}
}

func TestRemnantTypesByMass(t *testing.T) {
	s := New()
	cases := []struct {
		m    float64
		want Type
	}{
		{1, WhiteDwarf},
		{5, WhiteDwarf},
		{10, NeutronStar},
		{19, NeutronStar},
		{25, BlackHole},
		{60, BlackHole},
	}
	for _, c := range cases {
		st, err := s.NewStar(c.m)
		if err != nil {
			t.Fatal(err)
		}
		s.Evolve(&st, 1e6) // 1000 Gyr: everything is a remnant
		if st.Type != c.want {
			t.Fatalf("%v MSun remnant = %v, want %v", c.m, st.Type, c.want)
		}
	}
}

func TestSupernovaFlagOnlyOnce(t *testing.T) {
	s := New()
	st, _ := s.NewStar(25)
	tMS := s.MSLifetime(25)
	s.Evolve(&st, tMS/2)
	if st.Supernova {
		t.Fatal("exploded on the main sequence")
	}
	s.Evolve(&st, tMS*2) // past collapse
	if !st.Supernova {
		t.Fatal("no supernova at collapse")
	}
	s.Evolve(&st, tMS*3)
	if st.Supernova {
		t.Fatal("supernova flagged twice")
	}
	if st.Mass != s.InitFinalMass(25) {
		t.Fatalf("remnant mass %v", st.Mass)
	}
}

func TestMassMonotoneNonIncreasing(t *testing.T) {
	s := New()
	f := func(mRaw uint16, steps uint8) bool {
		m := 0.1 + float64(mRaw%1400)/10 // 0.1 .. 140
		st, err := s.NewStar(m)
		if err != nil {
			return true
		}
		tEnd := s.MSLifetime(m) * 3
		n := int(steps%20) + 2
		prev := st.Mass
		for i := 1; i <= n; i++ {
			s.Evolve(&st, tEnd*float64(i)/float64(n))
			if st.Mass > prev+1e-12 {
				return false
			}
			prev = st.Mass
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvolveBackwardsIgnored(t *testing.T) {
	s := New()
	st, _ := s.NewStar(2)
	s.Evolve(&st, 100)
	before := st
	if loss := s.Evolve(&st, 50); loss != 0 {
		t.Fatalf("backwards evolution lost %v", loss)
	}
	if st != before {
		t.Fatal("backwards evolution changed state")
	}
}

func TestGiantPhaseObservables(t *testing.T) {
	s := New()
	st, _ := s.NewStar(2)
	tMS := s.MSLifetime(2)
	s.Evolve(&st, tMS*1.05)
	if st.Type != Giant {
		t.Fatalf("type = %v", st.Type)
	}
	ms, _ := s.NewStar(2)
	if st.Luminosity <= ms.Luminosity || st.Radius <= ms.Radius {
		t.Fatal("giant not brighter/bigger than ZAMS")
	}
}

func TestPopulationEvolution(t *testing.T) {
	s := New()
	masses := []float64{0.5, 1, 3, 10, 25}
	p, err := NewPopulation(s, masses)
	if err != nil {
		t.Fatal(err)
	}
	m0 := p.TotalMass()
	loss := p.EvolveTo(50) // 50 Myr: the 10 and 25 MSun stars are gone
	if len(loss) != 5 {
		t.Fatalf("loss len = %d", len(loss))
	}
	if p.Supernovae() != 2 {
		t.Fatalf("supernovae = %d, want 2", p.Supernovae())
	}
	if p.TotalMass() >= m0 {
		t.Fatal("population gained mass")
	}
	var total float64
	for _, l := range loss {
		if l < 0 {
			t.Fatal("negative mass loss")
		}
		total += l
	}
	if math.Abs((m0-p.TotalMass())-total) > 1e-9 {
		t.Fatalf("loss accounting: %v vs %v", m0-p.TotalMass(), total)
	}
	if p.Flops() <= 0 {
		t.Fatal("no flops accounted")
	}
	if p.Time() != 50 {
		t.Fatalf("population time = %v", p.Time())
	}
}

func TestPopulationRejectsBadMass(t *testing.T) {
	if _, err := NewPopulation(New(), []float64{1, 0.001}); err == nil {
		t.Fatal("bad mass accepted")
	}
}

func TestTypeStrings(t *testing.T) {
	for _, tt := range []Type{MainSequence, Giant, WhiteDwarf, NeutronStar, BlackHole} {
		if tt.String() == "" || tt.String()[0] == 'T' {
			t.Fatalf("missing name for %d", int(tt))
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Fatal("unknown type string")
	}
}
