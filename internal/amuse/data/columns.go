package data

import "fmt"

// Attribute names understood by channels.
const (
	AttrMass           = "mass"
	AttrPos            = "position"
	AttrVel            = "velocity"
	AttrInternalEnergy = "u"
	AttrDensity        = "density"
	AttrSmoothingLen   = "h_smooth"
	AttrRadius         = "radius"
	AttrLuminosity     = "luminosity"
	AttrTemperature    = "temperature"
	AttrStellarType    = "stellar_type"
	AttrAge            = "age"
)

// Columnar attribute access. The set is already structure-of-arrays; these
// accessors name the arrays so channels and the batched wire protocol can
// move whole columns generically instead of switching per particle.

// FloatColumn returns the live scalar column for attr (not a copy).
func (p *Particles) FloatColumn(attr string) ([]float64, error) {
	switch attr {
	case AttrMass:
		return p.Mass, nil
	case AttrInternalEnergy:
		return p.InternalEnergy, nil
	case AttrDensity:
		return p.Density, nil
	case AttrSmoothingLen:
		return p.SmoothingLen, nil
	case AttrRadius:
		return p.Radius, nil
	case AttrLuminosity:
		return p.Luminosity, nil
	case AttrTemperature:
		return p.Temperature, nil
	case AttrAge:
		return p.Age, nil
	default:
		return nil, fmt.Errorf("data: unknown attribute %q", attr)
	}
}

// VecColumn returns the live vector column for attr (not a copy).
func (p *Particles) VecColumn(attr string) ([]Vec3, error) {
	switch attr {
	case AttrPos:
		return p.Pos, nil
	case AttrVel:
		return p.Vel, nil
	default:
		return nil, fmt.Errorf("data: unknown attribute %q", attr)
	}
}

// IntColumn returns the live integer column for attr (not a copy).
func (p *Particles) IntColumn(attr string) ([]int, error) {
	switch attr {
	case AttrStellarType:
		return p.StellarType, nil
	default:
		return nil, fmt.Errorf("data: unknown attribute %q", attr)
	}
}
