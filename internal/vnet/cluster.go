package vnet

import (
	"fmt"
	"time"
)

// ClusterSpec describes a cluster to instantiate in the virtual network:
// a front-end host reachable from outside (typically SSHOnly, as on DAS-4)
// and a set of compute nodes on an internal switch that refuse inbound
// connections from other sites.
type ClusterSpec struct {
	Name           string
	Site           string
	Nodes          int
	FrontendPolicy Policy
	NodePolicy     Policy
	// Internal switch properties (node <-> frontend).
	InternalLatency   time.Duration
	InternalBandwidth float64
}

// Cluster is the result of AddCluster: the generated host names.
type Cluster struct {
	Name     string
	Site     string
	Frontend string
	NodeName []string
}

// AddCluster creates a frontend plus spec.Nodes compute nodes, wiring every
// node to the frontend over the internal switch. The frontend is the
// cluster's gateway: connect it to the outside world with AddLink.
func (n *Network) AddCluster(spec ClusterSpec) (*Cluster, error) {
	if spec.Nodes < 0 {
		return nil, fmt.Errorf("vnet: cluster %q has negative node count", spec.Name)
	}
	if spec.InternalLatency == 0 {
		spec.InternalLatency = 50 * time.Microsecond
	}
	if spec.InternalBandwidth == 0 {
		spec.InternalBandwidth = 1.25e9 // 10 Gbit/s QDR-ish
	}
	fe := spec.Name + ".fe"
	if _, err := n.AddHost(fe, spec.Site, spec.FrontendPolicy); err != nil {
		return nil, err
	}
	c := &Cluster{Name: spec.Name, Site: spec.Site, Frontend: fe}
	for i := 0; i < spec.Nodes; i++ {
		name := fmt.Sprintf("%s.node%02d", spec.Name, i)
		if _, err := n.AddHost(name, spec.Site, spec.NodePolicy); err != nil {
			return nil, err
		}
		if err := n.AddLink(fe, name, spec.InternalLatency, spec.InternalBandwidth); err != nil {
			return nil, err
		}
		c.NodeName = append(c.NodeName, name)
	}
	return c, nil
}
