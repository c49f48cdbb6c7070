package tree

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/deploy"
	"jungle/internal/vtime"
)

// KindField is the worker kind this package registers: the coupling
// worker (Octgrav on GPUs, Fi on CPUs).
const KindField = "coupling"

// fieldEfficiency is this kernel family's sustained-efficiency
// calibration knob (Barnes–Hut tree); fitted jointly with the other
// families against §6.2's scenario numbers — see DESIGN.md.
const fieldEfficiency = 1.395e-4

func init() {
	kernel.Register(KindField, newFieldService)
}

// fieldService hosts the coupling worker.
type fieldService struct {
	res   *deploy.Resource
	clock *vtime.Clock
	k     *Kernel
	dev   *vtime.Device
	eps   float64

	// Staged inputs for the direct data plane: sources (mass+position)
	// and targets (position) arrive worker-to-worker via
	// stage_sources/stage_targets, keyed by slot so several exchanges can
	// be in flight; field_staged consumes a slot.
	srcStage map[uint64]stagedSources
	tgtStage map[uint64][]data.Vec3
}

// stagedSources is one slot's field-source columns.
type stagedSources struct {
	mass []float64
	pos  []data.Vec3
}

func newFieldService(cfg kernel.Config) (kernel.Service, error) {
	return &fieldService{
		res: cfg.Res, clock: vtime.NewClock(),
		srcStage: make(map[uint64]stagedSources),
		tgtStage: make(map[uint64][]data.Vec3),
	}, nil
}

// unstage parses a slot-tagged state frame. The staging methods decode the
// columns they keep out of the view, once, into the slot.
func unstage(args []byte) (slot uint64, v kernel.StateView, err error) {
	slot, raw, err := kernel.UnmarshalStaged(args)
	if err != nil {
		return 0, v, err
	}
	v, err = kernel.ViewState(raw)
	return slot, v, err
}

func (s *fieldService) Close() {}

func (s *fieldService) Dispatch(method string, args []byte, at time.Duration) (kernel.Reply, time.Duration, error) {
	s.clock.AdvanceTo(at)
	switch method {
	case "setup":
		var a kernel.SetupFieldArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		wantGPU := a.Kernel == "octgrav"
		dev, err := kernel.PickDevice(s.res, wantGPU)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		s.dev = kernel.Derate(dev, fieldEfficiency)
		if wantGPU {
			s.k = NewOctgrav(s.dev)
		} else {
			s.k = NewFi(s.dev)
		}
		if a.Theta > 0 {
			s.k.Theta = a.Theta
		}
		s.eps = a.Eps
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "field_at":
		var a kernel.FieldAtArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		acc, pot, flops := s.k.FieldAt(context.Background(), a.SrcMass, a.SrcPos, a.Targets, s.eps)
		s.clock.Advance(s.dev.Time(flops, 0))
		return kernel.EncodeReply(kernel.FieldAtResult{Acc: acc, Pot: pot}), s.clock.Now(), nil
	case "stage_sources":
		slot, v, err := unstage(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		mass, pos := v.Float(data.AttrMass), v.Vec(data.AttrPos)
		if mass == nil {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("tree: stage_sources: missing attribute %q", data.AttrMass)
		}
		if pos == nil {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("tree: stage_sources: missing attribute %q", data.AttrPos)
		}
		s.srcStage[slot] = stagedSources{mass: mass, pos: pos}
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "stage_targets":
		slot, v, err := unstage(args)
		if err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		pos := v.Vec(data.AttrPos)
		if pos == nil {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("tree: stage_targets: missing attribute %q", data.AttrPos)
		}
		s.tgtStage[slot] = pos
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "stage_release":
		// Abandon a slot whose evaluation will never be issued (one of
		// its staging transfers failed): frees the staged columns.
		var a kernel.FieldStagedArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		delete(s.srcStage, a.Slot)
		delete(s.tgtStage, a.Slot)
		return kernel.EncodeReply(kernel.Empty{}), s.clock.Now(), nil
	case "field_staged":
		var a kernel.FieldStagedArgs
		if err := kernel.Decode(args, &a); err != nil {
			return kernel.Reply{}, s.clock.Now(), err
		}
		src, ok := s.srcStage[a.Slot]
		if !ok {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("tree: field_staged: no sources staged for slot %d", a.Slot)
		}
		tgt, ok := s.tgtStage[a.Slot]
		if !ok {
			return kernel.Reply{}, s.clock.Now(), fmt.Errorf("tree: field_staged: no targets staged for slot %d", a.Slot)
		}
		delete(s.srcStage, a.Slot)
		delete(s.tgtStage, a.Slot)
		acc, pot, flops := s.k.FieldAt(context.Background(), src.mass, src.pos, tgt, s.eps)
		s.clock.Advance(s.dev.Time(flops, 0))
		return kernel.EncodeReply(kernel.FieldAtResult{Acc: acc, Pot: pot}), s.clock.Now(), nil
	case "stats":
		return kernel.EncodeReply(kernel.StatsResult{}), s.clock.Now(), nil
	case kernel.MethodCheckpoint, kernel.MethodRestore:
		out, err := kernel.ServeCheckpoint(s, method, args)
		return out, s.clock.Now(), err
	default:
		return kernel.Reply{}, s.clock.Now(), fmt.Errorf("%w: coupling.%s", kernel.ErrNoSuchMethod, method)
	}
}

// fieldExtra is the coupling worker's non-columnar snapshot state: the
// field kernel holds no particles of its own, but staged direct-plane
// inputs may be parked between a stage_* application and its evaluation.
type fieldExtra struct {
	Slots []fieldSlot
}

// fieldSlot is one staged slot's columns (any of the three may be nil).
type fieldSlot struct {
	Slot uint64
	Mass []float64
	Pos  []data.Vec3
	Tgt  []data.Vec3
}

// Snapshot implements kernel.Checkpointable. The coupling kernel is a
// pure function of its inputs, so the snapshot is just the clock plus any
// staged slots.
func (s *fieldService) Snapshot() (*kernel.Snapshot, error) {
	var ex fieldExtra
	for slot, src := range s.srcStage {
		fs := fieldSlot{Slot: slot, Mass: src.mass, Pos: src.pos, Tgt: s.tgtStage[slot]}
		ex.Slots = append(ex.Slots, fs)
	}
	for slot, tgt := range s.tgtStage {
		if _, dup := s.srcStage[slot]; !dup {
			ex.Slots = append(ex.Slots, fieldSlot{Slot: slot, Tgt: tgt})
		}
	}
	snap := &kernel.Snapshot{Kind: KindField, VTime: s.clock.Now()}
	if len(ex.Slots) > 0 {
		snap.Extra = kernel.Encode(ex)
	}
	return snap, nil
}

// Restore implements kernel.Checkpointable.
func (s *fieldService) Restore(snap *kernel.Snapshot) error {
	if err := snap.CheckKind(KindField); err != nil {
		return err
	}
	s.srcStage = make(map[uint64]stagedSources)
	s.tgtStage = make(map[uint64][]data.Vec3)
	if len(snap.Extra) == 0 {
		return nil
	}
	var ex fieldExtra
	if err := kernel.Decode(snap.Extra, &ex); err != nil {
		return err
	}
	for _, fs := range ex.Slots {
		if fs.Mass != nil || fs.Pos != nil {
			s.srcStage[fs.Slot] = stagedSources{mass: fs.Mass, pos: fs.Pos}
		}
		if fs.Tgt != nil {
			s.tgtStage[fs.Slot] = fs.Tgt
		}
	}
	return nil
}
