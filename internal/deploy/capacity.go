package deploy

import "sync"

// Capacity accounting. The control plane needs one truthful answer to
// "how many nodes of this resource are spoken for, and by whom?" — across
// every live session sharing the deployment. One book answers it: the
// nodes occupied by actually-running worker jobs, per resource and owner
// (the session; "" for sessionless simulations). The core daemon commits
// when it starts a worker and releases exactly once when the worker stops
// or dies, so admission, placement and SelectResource fairness all read
// one occupancy figure.

// CapacityMonitor receives a capacity gauge update whenever a resource's
// occupancy changes (trace.Recorder satisfies it; see RenderHealth).
type CapacityMonitor interface {
	RecordCapacity(resource string, occupied, total int)
}

// capLedger tracks committed nodes per resource per owner.
type capLedger struct {
	mu        sync.Mutex
	committed map[string]map[string]int // resource -> owner -> nodes
	mon       CapacityMonitor
}

// SetMonitor installs the capacity gauge observer. Every ledger mutation
// afterwards reports the resource's fresh occupancy to it.
func (d *Deployment) SetMonitor(m CapacityMonitor) {
	d.cap.mu.Lock()
	d.cap.mon = m
	d.cap.mu.Unlock()
}

// recordCapacity pushes one resource's current occupancy to the monitor.
// Called after the ledger mutation's unlock — OccupiedNodes retakes the
// ledger lock.
func (d *Deployment) recordCapacity(m CapacityMonitor, resource string) {
	if m == nil {
		return
	}
	total := 0
	if r, err := d.Resource(resource); err == nil {
		total = r.NodeCount()
	}
	m.RecordCapacity(resource, d.OccupiedNodes(resource), total)
}

// adjust moves one owner's committed nodes on a resource by delta and
// reports the resource's fresh occupancy to the monitor.
func (d *Deployment) adjust(resource, owner string, delta int) {
	d.cap.mu.Lock()
	if d.cap.committed == nil {
		d.cap.committed = make(map[string]map[string]int)
	}
	m := d.cap.committed[resource]
	if m == nil {
		m = make(map[string]int)
		d.cap.committed[resource] = m
	}
	m[owner] += delta
	if m[owner] <= 0 {
		delete(m, owner)
	}
	mon := d.cap.mon
	d.cap.mu.Unlock()
	d.recordCapacity(mon, resource)
}

// CommitNodes records nodes occupied by a running worker job. owner is
// the session the worker belongs to ("" for sessionless simulations).
func (d *Deployment) CommitNodes(resource, owner string, nodes int) {
	if nodes > 0 {
		d.adjust(resource, owner, nodes)
	}
}

// ReleaseNodes returns previously committed nodes (worker stopped/died).
func (d *Deployment) ReleaseNodes(resource, owner string, nodes int) {
	if nodes > 0 {
		d.adjust(resource, owner, -nodes)
	}
}

// occupied sums every owner's committed nodes on a resource, optionally
// excluding one owner (a caller fitting its OWN work must not count
// capacity it already holds against itself).
func (l *capLedger) occupied(resource, except string, useExcept bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for o, n := range l.committed[resource] {
		if useExcept && o == except {
			continue
		}
		total += n
	}
	return total
}

// OccupiedNodes returns the total nodes spoken for on a resource across
// all owners.
func (d *Deployment) OccupiedNodes(resource string) int {
	return d.cap.occupied(resource, "", false)
}

// OccupiedNodesByOthers returns the nodes spoken for on a resource by
// every owner except the given one — what a placement decision for that
// owner's work must subtract from the resource's capacity.
func (d *Deployment) OccupiedNodesByOthers(resource, owner string) int {
	return d.cap.occupied(resource, owner, true)
}
