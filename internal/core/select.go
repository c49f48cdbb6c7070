package core

import (
	"errors"
	"fmt"

	"jungle/internal/deploy"
)

// ErrNoResource is returned when no registered resource fits a spec.
var ErrNoResource = errors.New("core: no suitable resource")

// wantsGPU reports whether a kernel runs on an accelerator.
func wantsGPU(kernel string) bool {
	return kernel == "phigrape-gpu" || kernel == "octgrav"
}

// specDemand returns the effective (nodes per worker, total batch nodes)
// a spec needs: gangs multiply by the rank count.
func specDemand(spec WorkerSpec) (nodes, total int) {
	nodes = spec.Nodes
	if nodes < 1 {
		nodes = 1
	}
	workers := spec.Workers
	if workers < 1 {
		workers = 1
	}
	return nodes, workers * nodes
}

// fitsResource reports whether a spec fits a resource. Batch clusters
// (resources with enumerated nodes) enforce node counts — both the
// per-worker node demand and, for gangs, room for every rank's job —
// against the nodes the deployment's jobs that have not ended leave free,
// whichever session holds them (a session's models run at the same time,
// so a cluster its own workers fill cannot start another of its jobs
// either), plus the retired nodes the caller is about to give back there. ssh/local resources host
// workers as co-resident processes and never node-limit.
func fitsResource(d *deploy.Deployment, r *deploy.Resource, spec WorkerSpec, retired int) bool {
	if wantsGPU(spec.Kernel) && !r.HasGPU() {
		return false
	}
	nodes, total := specDemand(spec)
	if len(r.Nodes) == 0 {
		return r.NodeCount() >= nodes
	}
	free := r.NodeCount() - d.OccupiedNodes(r.Name) + retired
	return free >= nodes && free >= total
}

// SelectResource implements §4.3's requirement 5, which the paper's
// prototype leaves to the user: "given the list of resources a user has
// access to, ideally, software should find suitable resources itself". The
// policy is device-aware scoring: GPU kernels demand a GPU resource (best
// GPU wins); multi-node workers demand enough nodes (most aggregate compute
// wins); everything else goes to the fastest available CPU.
//
// Gang specs (Workers > 1) select ONE resource for all ranks — halo
// exchange runs every step, so a gang is co-located on a single site and
// its traffic rides the site's fast internal links rather than the WAN.
// Batch clusters must have room for every rank's job; ssh/local resources
// host the ranks as co-resident processes.
//
// Fit is capacity-aware: the nodes every job that has not ended holds —
// any session's, the caller's own included — are subtracted from a batch
// cluster's count before the fit check. So two sessions racing for one
// cluster cannot both be placed onto it when only one fits, and a
// replacement for a dead worker is not placed where the session's other
// models leave it no room: its job would only queue until ReadyTimeout.
func SelectResource(d *deploy.Deployment, spec WorkerSpec) (string, error) {
	var bestName string
	var bestScore float64
	needGPU := wantsGPU(spec.Kernel)
	for _, name := range d.Resources() {
		r, err := d.Resource(name)
		if err != nil || !fitsResource(d, r, spec, 0) {
			continue
		}
		score := 0.0
		switch {
		case needGPU:
			score = r.GPU.Gflops
		case r.CPU != nil:
			score = r.CPU.Gflops * float64(r.CPU.Cores) * float64(r.NodeCount())
		}
		if score > bestScore {
			bestScore, bestName = score, name
		}
	}
	if bestName == "" {
		nodes, _ := specDemand(spec)
		return "", fmt.Errorf("%w: kind=%s kernel=%q nodes=%d gpu=%v",
			ErrNoResource, spec.Kind, spec.Kernel, nodes, needGPU)
	}
	return bestName, nil
}

// SelectLeastLoaded is the scheduler-level placement policy: among the
// resources a spec fits (same device and capacity constraints as
// SelectResource), pick the one with the most free capacity — batch
// clusters by free-node fraction, ssh/local hosts by how few workers'
// jobs already run there (the same job table, OccupiedNodes). Ties break
// toward SelectResource's compute score, so an idle jungle places exactly
// like the single-session policy.
func SelectLeastLoaded(d *deploy.Deployment, spec WorkerSpec) (string, error) {
	return selectLeastLoaded(d, spec, "")
}

// selectLeastLoaded is SelectLeastLoaded with an optional excluded
// resource — migration off a contended resource must not pick the
// resource it is fleeing.
func selectLeastLoaded(d *deploy.Deployment, spec WorkerSpec, exclude string) (string, error) {
	var bestName string
	var bestFree, bestScore float64
	first := true
	needGPU := wantsGPU(spec.Kernel)
	for _, name := range d.Resources() {
		if name == exclude {
			continue
		}
		r, err := d.Resource(name)
		if err != nil || !fitsResource(d, r, spec, 0) {
			continue
		}
		occupied := d.OccupiedNodes(r.Name)
		var free float64
		if len(r.Nodes) > 0 {
			free = float64(r.NodeCount()-occupied) / float64(r.NodeCount())
		} else {
			// Co-resident hosts never fill up; rank them below an empty
			// cluster once workers pile on (1/(1+n) decays with load).
			free = 1 / (1 + float64(occupied))
		}
		score := 0.0
		switch {
		case needGPU:
			score = r.GPU.Gflops
		case r.CPU != nil:
			score = r.CPU.Gflops * float64(r.CPU.Cores) * float64(r.NodeCount())
		}
		// Strictly better free fraction wins; equal free falls to compute
		// score; a full tie breaks on the lexicographically smallest name.
		// The explicit name clause pins the choice even if the candidate
		// iteration order ever stops being sorted — placement must be a
		// pure function of the job table, never of map iteration order.
		better := free > bestFree ||
			(free == bestFree && score > bestScore) ||
			(free == bestFree && score == bestScore && name < bestName)
		if first || better {
			first = false
			bestName, bestFree, bestScore = name, free, score
		}
	}
	if bestName == "" {
		nodes, _ := specDemand(spec)
		return "", fmt.Errorf("%w: kind=%s kernel=%q nodes=%d gpu=%v",
			ErrNoResource, spec.Kind, spec.Kernel, nodes, needGPU)
	}
	return bestName, nil
}
