package mpi

import (
	"viampi/internal/obs"
	"viampi/internal/simnet"
)

// profiler turns a rank's outermost MPI entry points into call-span events
// (EvCallBegin/EvCallEnd) on the observability bus: the Perfetto exporter
// renders them as slices on the rank's track, and obs.CallProfile folds
// them into the PMPI-style call profile. Only the outermost entry point on
// the call stack emits (a Waitall inside Alltoall is charged to Alltoall,
// not double-counted).
type profiler struct {
	proc  *simnet.Proc
	depth int
	rank  int32
	bus   *obs.Bus
}

// enter opens a call span; the returned func closes it.
// A nil profiler (observability off) costs one branch.
func (p *profiler) enter(name string) func() {
	if p == nil {
		return func() {}
	}
	p.depth++
	if p.depth > 1 {
		return func() { p.depth-- }
	}
	p.bus.Emit(obs.Event{T: int64(p.proc.Now()), Kind: obs.EvCallBegin,
		Rank: p.rank, Peer: -1, Name: name})
	return func() {
		p.depth--
		p.bus.Emit(obs.Event{T: int64(p.proc.Now()), Kind: obs.EvCallEnd,
			Rank: p.rank, Peer: -1, Name: name})
	}
}
