// Package via is the fixture home of the layering and chargeflow cases.
package via

import (
	"fixmod/internal/fabric"
	"fixmod/internal/mpi" // layering violation: via may not import mpi
)

// Network mirrors the real via.Network shape.
type Network struct {
	cluster *fabric.Cluster
}

// Port mirrors the real via.Port charging surface.
type Port struct{}

// ChargeHost is the fixture charging primitive (ChargeFuncs in the policy).
func (p *Port) ChargeHost(d int64) {}

// UnchargedSend reaches the fabric without paying — must flag.
func (n *Network) UnchargedSend() {
	n.cluster.Send(64) // chargeflow violation: exported, never charges
}

// ChargedSend pays host cost in the same body — must NOT flag.
func (n *Network) ChargedSend(p *Port) {
	p.ChargeHost(100)
	n.cluster.Send(64)
}

// Upward exists so the mpi import is used.
func Upward(m map[int]string) []string { return mpi.GoodSortedKeys(m) }
