package obs

import (
	"fmt"
	"io"
)

// Phase decomposition: where a rank's virtual time went. This is the report
// that explains Figs 6–8 — an application that is "communication bound" or a
// mechanism whose cost is all connect time shows up directly as a column.
type Phase int

// The phases a rank's elapsed time decomposes into. Other is the residual
// (bootstrap, host copy charges, NIC service waits not attributable to a
// specific blocked reason).
const (
	PhaseCompute Phase = iota
	PhaseEager
	PhaseRendezvous
	PhaseConnect
	PhaseCreditStall
	PhaseProgress
	PhaseOther
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseEager:
		return "eager"
	case PhaseRendezvous:
		return "rendezvous"
	case PhaseConnect:
		return "connect"
	case PhaseCreditStall:
		return "credit-stall"
	case PhaseProgress:
		return "progress-poll"
	case PhaseOther:
		return "other"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Phases accumulates per-phase virtual nanoseconds for one rank. A nil
// *Phases ignores charges (observability off).
type Phases struct {
	Ns [NumPhases]int64
}

// Add charges d nanoseconds to phase p. Safe on a nil receiver.
func (ph *Phases) Add(p Phase, d int64) {
	if ph == nil || d <= 0 {
		return
	}
	ph.Ns[p] += d
}

// Total returns the sum of all charged phases.
func (ph *Phases) Total() int64 {
	if ph == nil {
		return 0
	}
	var t int64
	for _, v := range ph.Ns {
		t += v
	}
	return t
}

// PhaseTable is the phase-decomposition subscriber. It folds the run
// epilogue — one EvPhase per (rank, phase) carrying the rank's charged
// nanoseconds, and EvRunEnd carrying the elapsed time every row is
// normalized against — so the live bus and a replayed capture bundle render
// the same table.
type PhaseTable struct {
	Attachment
	perRank map[int32]*Phases
	elapsed int64
}

// NewPhaseTable returns an empty phase table.
func NewPhaseTable() *PhaseTable {
	pt := &PhaseTable{perRank: map[int32]*Phases{}}
	pt.Attachment = Feeding(pt.consume)
	return pt
}

func (pt *PhaseTable) consume(e Event) {
	switch e.Kind {
	case EvPhase:
		p := pt.perRank[e.Rank]
		if p == nil {
			p = &Phases{}
			pt.perRank[e.Rank] = p
		}
		if e.A >= 0 && e.A < int64(NumPhases) {
			p.Ns[e.A] = e.B
		}
	case EvRunEnd:
		pt.elapsed = e.T
	default:
		// Protocol events carry no phase accounting.
	}
}

// Rank returns one rank's charged phases (nil if none were reported).
func (pt *PhaseTable) Rank(rank int) *Phases { return pt.perRank[int32(rank)] }

// Write renders the per-rank phase decomposition: one row per rank, a
// column per phase (milliseconds and percent of elapsed), with "other"
// computed as the residual so the row always sums to the elapsed time.
func (pt *PhaseTable) Write(w io.Writer) {
	if len(pt.perRank) == 0 {
		fmt.Fprintln(w, "phases: empty (no phase records reached the bus)")
		return
	}
	fmt.Fprintf(w, "%-5s %10s", "rank", "elapsed")
	for p := PhaseCompute; p < NumPhases; p++ {
		fmt.Fprintf(w, " %18s", p.String())
	}
	fmt.Fprintln(w)
	for _, r := range sortedKeys(pt.perRank) {
		ph := pt.perRank[r]
		fmt.Fprintf(w, "%-5d %8.2fms", r, float64(pt.elapsed)/1e6)
		for p := PhaseCompute; p < NumPhases; p++ {
			ns := ph.Ns[p]
			if p == PhaseOther {
				if resid := pt.elapsed - ph.Total() + ph.Ns[PhaseOther]; resid > 0 {
					ns = resid
				}
			}
			pct := 0.0
			if pt.elapsed > 0 {
				pct = 100 * float64(ns) / float64(pt.elapsed)
			}
			fmt.Fprintf(w, " %10.2fms %5.1f%%", float64(ns)/1e6, pct)
		}
		fmt.Fprintln(w)
	}
}
