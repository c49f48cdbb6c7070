package deploy

import (
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
