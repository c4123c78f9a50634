package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// CallProfile is the PMPI-style call-profile subscriber: per MPI entry
// point and rank, how often it was called and how much virtual time it took.
// The paper's analysis style — "IS is communication bound", "MG calls
// barrier, allreduce and bcast" — comes straight out of this accounting.
//
// It folds the call spans the mpi layer puts on the bus (EvCallBegin /
// EvCallEnd, outermost entry point only, so a Waitall inside Alltoall is
// charged to Alltoall) and takes the world size from EvRunEnd, so the
// report is a pure function of the event stream.
type CallProfile struct {
	Attachment
	open  map[int32]int64                 // rank -> start of its open outermost call
	stats map[string]map[int32]callTotals // call name -> rank -> totals
	world int
}

// callTotals is one entry point's accumulated profile on one rank.
type callTotals struct {
	calls int64
	time  time.Duration // virtual time inside the call
}

// NewCallProfile returns an empty call profile.
func NewCallProfile() *CallProfile {
	c := &CallProfile{open: map[int32]int64{}, stats: map[string]map[int32]callTotals{}}
	c.Attachment = Feeding(c.consume)
	return c
}

func (c *CallProfile) consume(e Event) {
	switch e.Kind {
	case EvCallBegin:
		c.open[e.Rank] = e.T
	case EvCallEnd:
		per := c.stats[e.Name]
		if per == nil {
			per = map[int32]callTotals{}
			c.stats[e.Name] = per
		}
		st := per[e.Rank]
		st.calls++
		st.time += time.Duration(e.T - c.open[e.Rank])
		per[e.Rank] = st
	case EvRunEnd:
		c.world = int(e.A)
	default:
		// Only call spans and the run epilogue shape the profile.
	}
}

// Stat returns how often rank issued the named entry point and the virtual
// time those calls took (zero if it never issued the call).
func (c *CallProfile) Stat(name string, rank int) (calls int64, d time.Duration) {
	st := c.stats[name][int32(rank)]
	return st.calls, st.time
}

// callSpread is one entry point's rank-aggregated line.
type callSpread struct {
	name            string
	calls           int64
	total, min, max time.Duration
}

func (c *CallProfile) spread(name string) callSpread {
	per := c.stats[name]
	ranks := sortedKeys(per)
	s := callSpread{name: name}
	for i, r := range ranks {
		st := per[r]
		s.calls += st.calls
		s.total += st.time
		if i == 0 || st.time < s.min {
			s.min = st.time
		}
		s.max = max(s.max, st.time)
	}
	if len(ranks) < c.world {
		s.min = 0 // a rank that never issued the call spent zero time in it
	}
	return s
}

// Write renders the rank-aggregated profile: per entry point, total calls
// and virtual time across all ranks (sorted by time), plus the per-rank
// spread — the fastest and slowest single-rank totals and the imbalance
// ratio max/avg (1.00 = perfectly balanced; ranks that never issued the call
// count as zero time, so a point-to-point call concentrated on one rank
// shows its concentration here).
func (c *CallProfile) Write(out io.Writer) {
	if len(c.stats) == 0 {
		fmt.Fprintln(out, "profile: empty (no MPI call spans reached the bus)")
		return
	}
	names := sortedKeys(c.stats)
	rows := make([]callSpread, len(names))
	for i, n := range names {
		rows[i] = c.spread(n)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	fmt.Fprintf(out, "%-12s %10s %14s %12s %12s %12s %7s\n",
		"call", "count", "total time", "avg", "rank min", "rank max", "imbal")
	for _, s := range rows {
		avg := time.Duration(0)
		if s.calls > 0 {
			avg = s.total / time.Duration(s.calls)
		}
		imbal := 1.0
		if s.total > 0 {
			imbal = float64(s.max) * float64(c.world) / float64(s.total)
		}
		fmt.Fprintf(out, "%-12s %10d %14s %12s %12s %12s %7.2f\n",
			s.name, s.calls, s.total, avg, s.min, s.max, imbal)
	}
}
