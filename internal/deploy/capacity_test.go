package deploy

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"jungle/internal/vnet"
)

func capTestDeployment(t *testing.T) *Deployment {
	t.Helper()
	n := vnet.New()
	if _, err := n.AddHost("client", "site", vnet.Open); err != nil {
		t.Fatal(err)
	}
	d, err := New(n, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// TestCapacityLedger: commitments add up per owner and across owners, and
// releases drain the book back to zero.
func TestCapacityLedger(t *testing.T) {
	d := capTestDeployment(t)

	// Session s1 runs 5 nodes of workers, s2 two, and two anonymous
	// workers share the cluster.
	d.CommitNodes("cluster", "s1", 3)
	d.CommitNodes("cluster", "s1", 2)
	d.CommitNodes("cluster", "s2", 2)
	d.CommitNodes("cluster", "", 1)
	d.CommitNodes("cluster", "", 1)
	if got := d.OccupiedNodes("cluster"); got != 5+2+2 {
		t.Fatalf("occupied = %d, want 9", got)
	}

	// Releases drain to zero; negative balances never persist.
	d.ReleaseNodes("cluster", "s1", 5)
	d.ReleaseNodes("cluster", "s2", 3)
	d.ReleaseNodes("cluster", "", 2)
	if got := d.OccupiedNodes("cluster"); got != 0 {
		t.Fatalf("occupied after release = %d, want 0", got)
	}
	d.CommitNodes("cluster", "s2", 1)
	if got := d.OccupiedNodes("cluster"); got != 1 {
		t.Fatalf("occupied after an over-release = %d, want 1", got)
	}
	// Other resources are untouched.
	if got := d.OccupiedNodes("elsewhere"); got != 0 {
		t.Fatalf("untouched resource occupied = %d", got)
	}
}

// gaugeRecorder is a network recorder that also takes capacity gauges.
type gaugeRecorder struct {
	gauges []string
}

func (r *gaugeRecorder) TrafficCounter(from, to, class string) *atomic.Int64 { return nil }

func (r *gaugeRecorder) RecordCapacity(resource string, occupied, total int) {
	r.gauges = append(r.gauges, fmt.Sprintf("%s %d/%d", resource, occupied, total))
}

// trafficOnly is a network recorder with no capacity gauge.
type trafficOnly struct{}

func (trafficOnly) TrafficCounter(from, to, class string) *atomic.Int64 { return nil }

// TestCapacityGaugeFollowsNetworkRecorder: every ledger mutation reaches
// the network's recorder with no setup call, and a recorder that takes no
// capacity gauge is skipped.
func TestCapacityGaugeFollowsNetworkRecorder(t *testing.T) {
	d := capTestDeployment(t)
	rec := &gaugeRecorder{}
	d.Net.SetRecorder(rec)
	d.CommitNodes("cluster", "s1", 3)
	d.CommitNodes("cluster", "s2", 2)
	d.ReleaseNodes("cluster", "s1", 3)
	want := []string{"cluster 3/0", "cluster 5/0", "cluster 2/0"}
	if !slices.Equal(rec.gauges, want) {
		t.Fatalf("capacity gauges %q, want %q", rec.gauges, want)
	}

	d.Net.SetRecorder(trafficOnly{})
	d.CommitNodes("cluster", "s1", 1)
	d.ReleaseNodes("cluster", "s2", 2)
	if len(rec.gauges) != len(want) {
		t.Fatalf("gauges recorded past the network's recorder: %q", rec.gauges)
	}
	if got := d.OccupiedNodes("cluster"); got != 1 {
		t.Fatalf("occupied = %d, want 1", got)
	}
}
