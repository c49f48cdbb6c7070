package sph

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core/kernel"
	"jungle/internal/mpisim"
	"jungle/internal/vtime"
)

// reuseRun is one way of evolving a gas: serially (size 1), over a World of
// 8 goroutine ranks sharing one Gas, or over a gang of 3 replicas with an
// empty slab. evolve returns every rank's virtual clock after the call.
type reuseRun struct {
	gases  []*Gas
	size   int
	evolve func(end float64) ([]time.Duration, error)
}

// hitsPerEvolve is what one evolve that reuses adds to each Gas's hit
// counter: one per rank sharing it.
func (r *reuseRun) hitsPerEvolve() int { return r.size / len(r.gases) }

// gangCuts are the gang's slab boundaries, with an empty slab in the middle.
func gangCuts(n int) []int { return []int{0, n / 7, n / 7, n} }

func reuseRuns(t *testing.T, p *data.Particles) map[string]*reuseRun {
	t.Helper()
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}
	ctx := context.Background()
	ranked := func(w *mpisim.World, gases []*Gas, size int, end float64) ([]time.Duration, error) {
		clocks := make([]time.Duration, size)
		err := w.Run(func(r *mpisim.Gang) error {
			var err error
			if len(gases) == 1 { // EvolveToParallel's ranks, whose clocks it does not return
				err = gases[0].evolve(ctx, end, r, dev, r.ID() == 0)
			} else {
				err = gases[r.ID()].EvolveToComm(ctx, end, r, dev)
			}
			clocks[r.ID()] = r.Clock().Now()
			return err
		})
		return clocks, err
	}
	serial, world := newGas(t, p, true), newGas(t, p, true)
	gang := []*Gas{newGas(t, p, true), newGas(t, p, true), newGas(t, p, true)}
	for _, g := range gang {
		if err := g.SetCuts(gangCuts(p.Len()), len(gang)); err != nil {
			t.Fatal(err)
		}
	}
	ranks := mpisim.LocalGangs(len(gang), 20*time.Microsecond)
	t.Cleanup(ranks.Close)
	return map[string]*reuseRun{
		"serial": {gases: []*Gas{serial}, size: 1, evolve: func(end float64) ([]time.Duration, error) {
			return nil, serial.EvolveTo(ctx, end)
		}},
		"world of 8": {gases: []*Gas{world}, size: 8, evolve: func(end float64) ([]time.Duration, error) {
			return ranked(testWorld(t, 8), []*Gas{world}, 8, end)
		}},
		"gang of 3": {gases: gang, size: 3, evolve: func(end float64) ([]time.Duration, error) {
			return ranked(ranks, gang, 3, end)
		}},
	}
}

// scaledParticles is the gas's state with every position scaled by s.
func scaledParticles(t *testing.T, g *Gas, s float64) *data.Particles {
	t.Helper()
	p := data.NewParticles(g.N())
	if err := g.GetParticles(p); err != nil {
		t.Fatal(err)
	}
	for i := range p.Pos {
		p.Pos[i] = p.Pos[i].Scale(s)
	}
	return p
}

// setState dispatches a set_state of the given columns to a hydro service
// over g.
func setState(t *testing.T, g *Gas, st *kernel.StatePayload) {
	t.Helper()
	frame, err := kernel.MarshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&hydroService{gas: g, clock: vtime.NewClock()}).Dispatch("set_state", frame, 0); err != nil {
		t.Fatal(err)
	}
}

// A write is applied between two evolves to the oracle's gas (size 1) and
// to every gas of every run.
type write func(t *testing.T, g *Gas, size int)

// TestEvolveReuseMatchesOracle: a priming pass reuses the self-gravity the
// previous evolve ended on exactly when no position, mass, row range,
// EpsGrav, Theta or SelfGravity changed since. Writes of each kind sit
// between EvolveTo calls. After every call each run publishes what the
// oracle's serial loop publishes and what a twin whose kept rows are
// dropped before every call publishes, flops and every rank's virtual clock
// included. The writes that leave gravity's inputs alone must reuse, the
// others must not.
func TestEvolveReuseMatchesOracle(t *testing.T) {
	exactArithmetic(t)
	p := oracleGases(t, 7)["cluster-outliers"]
	n := p.Len()
	initial := map[*Gas]*kernel.Snapshot{} // each gas before its first call
	for _, c := range []struct {
		name   string
		writes []write
		reuse  bool
		// The writes change only sharded runs: a serial run has one row
		// range whatever the cuts, so it reuses.
		shardedOnly bool
	}{
		{name: "Kick", reuse: true, writes: []write{func(t *testing.T, g *Gas, _ int) {
			dv := make([]data.Vec3, g.N())
			for i := range dv {
				dv[i] = data.Vec3{0.01, -0.02, 0.005}
			}
			if err := g.Kick(context.Background(), dv); err != nil {
				t.Fatal(err)
			}
		}}},
		{name: "InjectEnergy", reuse: true, writes: []write{func(t *testing.T, g *Gas, _ int) {
			if g.InjectEnergy(data.Vec3{}, 0.3, 0.5) == 0 {
				t.Fatal("no particle heated")
			}
		}}},
		{name: "set_state vel u", reuse: true, writes: []write{func(t *testing.T, g *Gas, _ int) {
			p := scaledParticles(t, g, 1)
			for i := range p.Vel {
				p.Vel[i] = p.Vel[i].Scale(0.9)
				p.InternalEnergy[i] *= 1.1
			}
			setState(t, g, kernel.NewState(g.N()).AddVec(data.AttrVel, p.Vel).AddFloat(data.AttrInternalEnergy, p.InternalEnergy))
		}}},
		{name: "SetParticles", writes: []write{func(t *testing.T, g *Gas, _ int) {
			if err := g.SetParticles(scaledParticles(t, g, 1.01)); err != nil {
				t.Fatal(err)
			}
		}}},
		{name: "set_state pos", writes: []write{func(t *testing.T, g *Gas, _ int) {
			setState(t, g, kernel.NewState(g.N()).AddVec(data.AttrPos, scaledParticles(t, g, 1.01).Pos))
		}}},
		{name: "set_state mass", writes: []write{func(t *testing.T, g *Gas, _ int) {
			m := slices.Clone(g.mass)
			for i := range m {
				m[i] *= 1.5
			}
			setState(t, g, kernel.NewState(g.N()).AddFloat(data.AttrMass, m))
		}}},
		{name: "Restore", writes: []write{func(t *testing.T, g *Gas, _ int) {
			if err := (&hydroService{gas: g}).Restore(initial[g]); err != nil {
				t.Fatal(err)
			}
		}}},
		{name: "SetCuts and back", shardedOnly: true, writes: []write{
			func(t *testing.T, g *Gas, size int) {
				if size == 1 {
					return
				}
				cuts := make([]int, size+1)
				for i := range cuts {
					cuts[i] = n * i * i / (size * size)
				}
				if err := g.SetCuts(cuts, size); err != nil {
					t.Fatal(err)
				}
			},
			func(t *testing.T, g *Gas, size int) {
				if size == 1 {
					return
				}
				var cuts []int // the world's uniform slabs
				if size == 3 {
					cuts = gangCuts(n)
				}
				if err := g.SetCuts(cuts, size); err != nil {
					t.Fatal(err)
				}
			}}},
		{name: "EpsGrav and back", writes: []write{
			func(_ *testing.T, g *Gas, _ int) { g.EpsGrav = 0.02 },
			func(_ *testing.T, g *Gas, _ int) { g.EpsGrav = 0.01 }}},
		{name: "Theta and back", writes: []write{
			func(_ *testing.T, g *Gas, _ int) { g.Theta = 0.5 },
			func(_ *testing.T, g *Gas, _ int) { g.Theta = 0.6 }}},
		{name: "SelfGravity off and on", writes: []write{
			func(_ *testing.T, g *Gas, _ int) { g.SelfGravity = false },
			func(_ *testing.T, g *Gas, _ int) { g.SelfGravity = true }}},
	} {
		want := newGas(t, p, true)
		runs, twins := reuseRuns(t, p), reuseRuns(t, p)
		gases := []*Gas{want}
		for name, run := range runs {
			gases = append(append(gases, run.gases...), twins[name].gases...)
		}
		for _, g := range gases {
			snap, err := (&hydroService{gas: g, clock: vtime.NewClock()}).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			initial[g] = snap
		}
		for call := 0; call <= len(c.writes); call++ {
			end := float64(call+1) * 0.002
			if call > 0 {
				c.writes[call-1](t, want, 1)
			}
			oracleEvolve(want, end)
			for name, run := range runs {
				what := fmt.Sprintf("%s call %d %s", c.name, call, name)
				twin := twins[name]
				hits := make([]int, len(run.gases))
				for i, g := range run.gases {
					if call > 0 {
						c.writes[call-1](t, g, run.size)
						c.writes[call-1](t, twin.gases[i], run.size)
					}
					hits[i] = g.keptHits
					twin.gases[i].kept = nil
				}
				clocks, err := run.evolve(end)
				if err != nil {
					t.Fatal(err)
				}
				twinClocks, err := twin.evolve(end)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(clocks, twinClocks) {
					t.Fatalf("%s: rank clocks %v, %v when every prime recomputes", what, clocks, twinClocks)
				}
				reuse := c.reuse || (c.shardedOnly && run.size == 1)
				var flops float64
				for i, g := range run.gases {
					sameGas(t, what+", against the twin", g, twin.gases[i])
					wantHits := 0
					if reuse {
						wantHits = run.hitsPerEvolve()
					}
					if got := g.keptHits - hits[i]; call > 0 && got != wantHits {
						t.Fatalf("%s: %d primes reused kept gravity, want %d", what, got, wantHits)
					}
					flops += g.flops
					own := g.flops
					g.flops = want.flops // a rank reports its own flops times the size
					sameGas(t, what, g, want)
					g.flops = own
				}
				// A world's rank 0 publishes; only the gang's replicas sum to
				// the total.
				if len(run.gases) == run.size && flops/float64(run.size) != want.flops {
					t.Fatalf("%s: the ranks' flops come to %v, oracle %v", what, flops/float64(run.size), want.flops)
				}
			}
		}
	}
}

// TestEvolveReuseDropsUnpublishedKeep: an evolve whose ranks kept their
// gravity but never published — a World whose rank 0 failed after its peers
// finished — leaves the gas's generation where it was. A write then moves
// the generation to the one the keep was stamped with, so the write must
// drop the keep, or the next prime takes gravity at positions nobody
// published.
func TestEvolveReuseDropsUnpublishedKeep(t *testing.T) {
	exactArithmetic(t)
	p := oracleGases(t, 11)["cluster-outliers"]
	dev := &vtime.Device{Name: "node", Kind: vtime.CPU, Gflops: 5, Cores: 8}
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		write write
	}{
		{"SetParticles", func(t *testing.T, g *Gas, _ int) {
			if err := g.SetParticles(scaledParticles(t, g, 1.01)); err != nil {
				t.Fatal(err)
			}
		}},
		{"set_state pos", func(t *testing.T, g *Gas, _ int) {
			setState(t, g, kernel.NewState(g.N()).AddVec(data.AttrPos, scaledParticles(t, g, 1.01).Pos))
		}},
		{"set_state mass", func(t *testing.T, g *Gas, _ int) {
			m := slices.Clone(g.mass)
			for i := range m {
				m[i] *= 1.5
			}
			setState(t, g, kernel.NewState(g.N()).AddFloat(data.AttrMass, m))
		}},
	} {
		want := newGas(t, p, true)
		c.write(t, want, 1)
		oracleEvolve(want, 0.004)
		for _, size := range []int{1, 8} {
			what := fmt.Sprintf("%s, %d ranks", c.name, size)
			g := newGas(t, p, true)
			var w *mpisim.World
			if size > 1 {
				w = testWorld(t, size)
			}
			unpublished := func(r *mpisim.Gang) error { return g.evolve(ctx, 0.004, r, dev, false) }
			if w == nil {
				if err := unpublished(nil); err != nil {
					t.Fatal(err)
				}
			} else if err := w.Run(unpublished); err != nil {
				t.Fatal(err)
			}
			if len(g.kept) != size {
				t.Fatalf("%s: %d rows kept, want %d", what, len(g.kept), size)
			}
			c.write(t, g, size)
			if err := g.EvolveToParallel(ctx, 0.004, w, dev); err != nil {
				t.Fatal(err)
			}
			if g.keptHits != 0 {
				t.Fatalf("%s: %d primes took gravity kept at unpublished positions", what, g.keptHits)
			}
			if size > 1 {
				g.flops = want.flops // rank 0 reports its own flops times the size
			}
			sameGas(t, what, g, want)
		}
	}
}
