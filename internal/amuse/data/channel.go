package data

import "errors"

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

// ErrNoTransfer is returned by RemoteChannel.Copy when the channel was
// built without a transfer function.
var ErrNoTransfer = errors.New("data: remote channel has no transfer function")

// TransferFunc moves the named attribute columns between two
// worker-resident particle sets. The coupler layer supplies it (core
// wires RemoteChannels to its TransferState orchestration), keeping this
// package free of any transport dependency.
type TransferFunc func(attrs []string) error

// RemoteChannel is AMUSE's new_channel_to for particle sets that live on
// workers: Copy moves the named attribute columns from the source
// worker's set to the destination worker's without materializing them on
// the caller — over a direct worker-to-worker stream when one exists,
// through the coupler otherwise. Attribute errors name the offending
// attribute so a miswired script fails diagnosably.
type RemoteChannel struct {
	transfer TransferFunc
}

// NewRemoteChannel builds a remote channel over a transfer function.
func NewRemoteChannel(transfer TransferFunc) *RemoteChannel {
	return &RemoteChannel{transfer: transfer}
}

// Copy transfers the named attributes between the worker-resident sets.
// With no attributes it copies mass, position and velocity (the common
// dynamics exchange).
func (c *RemoteChannel) Copy(attrs ...string) error {
	if c.transfer == nil {
		return ErrNoTransfer
	}
	if len(attrs) == 0 {
		attrs = []string{AttrMass, AttrPos, AttrVel}
	}
	return c.transfer(attrs)
}
