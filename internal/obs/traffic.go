package obs

import (
	"fmt"
	"io"
)

// Traffic is the communication-matrix subscriber: who sent how many user
// messages, and how many bytes, to whom. The paper's whole argument rests on
// communication locality (Table 1's distinct-destination counts, Table 2's
// VI utilization); this report makes that locality visible for any run, as
// an ASCII heat map, per-rank destination sets and summary statistics.
//
// Its state follows the same locality it measures: one entry per ordered
// (src, dst) pair that actually exchanged a message, never a world×world
// table, so tracing a sparse 4096-rank job costs O(pairs), not O(world²).
// Every count comes from EvMsgSend and the world size from EvRunEnd, so the
// report is a pure function of the event stream: a capture bundle replayed
// onto a bus reproduces it byte for byte.
type Traffic struct {
	Attachment
	pairs map[uint64]pairTraffic // pairKey(src, dst) -> totals
	world int
}

type pairTraffic struct{ msgs, bytes int64 }

// NewTraffic returns an empty traffic matrix.
func NewTraffic() *Traffic {
	t := &Traffic{pairs: map[uint64]pairTraffic{}}
	t.Attachment = Feeding(t.consume)
	return t
}

func (t *Traffic) consume(e Event) {
	switch e.Kind {
	case EvMsgSend:
		k := pairKey(e.Rank, e.Peer)
		p := t.pairs[k]
		p.msgs++
		p.bytes += e.A
		t.pairs[k] = p
	case EvRunEnd:
		t.world = int(e.A)
	default:
		// Only user sends and the run epilogue shape the matrix.
	}
}

// Messages returns the message count from src to dst.
func (t *Traffic) Messages(src, dst int) int64 {
	return t.pairs[pairKey(int32(src), int32(dst))].msgs
}

// each visits the in-world pairs in (src, dst) order.
func (t *Traffic) each(fn func(src, dst int, p pairTraffic)) {
	for _, k := range sortedKeys(t.pairs) {
		src, dst := int(int32(k>>32)), int(int32(k))
		if src >= 0 && src < t.world && dst >= 0 && dst < t.world {
			fn(src, dst, t.pairs[k])
		}
	}
}

// Dests returns the sorted distinct destinations of a rank — the Table 1
// metric for one process. Self-sends are not destinations.
func (t *Traffic) Dests(rank int) []int {
	var ds []int
	t.each(func(src, dst int, _ pairTraffic) {
		if src == rank && dst != rank {
			ds = append(ds, dst)
		}
	})
	return ds
}

// destTotals returns the summed and the largest per-rank distinct-
// destination counts.
func (t *Traffic) destTotals() (sum, peak int) {
	per := make([]int, t.world)
	t.each(func(src, dst int, _ pairTraffic) {
		if src != dst {
			per[src]++
		}
	})
	for _, n := range per {
		sum += n
		peak = max(peak, n)
	}
	return sum, peak
}

// AvgDests returns the average distinct-destination count across ranks.
func (t *Traffic) AvgDests() float64 {
	if t.world == 0 {
		return 0
	}
	sum, _ := t.destTotals()
	return float64(sum) / float64(t.world)
}

// MaxDests returns the largest per-rank destination count.
func (t *Traffic) MaxDests() int {
	_, peak := t.destTotals()
	return peak
}

// Totals returns the message and byte counts summed over every pair.
func (t *Traffic) Totals() (msgs, bytes int64) {
	t.each(func(_, _ int, p pairTraffic) {
		msgs += p.msgs
		bytes += p.bytes
	})
	return msgs, bytes
}

// Density is the fraction of ordered rank pairs that exchanged at least one
// message — 1.0 for a fully-connected pattern like alltoall.
func (t *Traffic) Density() float64 {
	if t.world < 2 {
		return 0
	}
	sum, _ := t.destTotals()
	return float64(sum) / float64(t.world*(t.world-1))
}

// WriteMatrix writes an ASCII heat map of the message-count matrix:
// '.' none, then '1'..'9' for increasing decades of messages.
func (t *Traffic) WriteMatrix(w io.Writer) {
	fmt.Fprintf(w, "communication matrix (%d ranks, rows=src, cols=dst; log10 scale)\n", t.world)
	fmt.Fprint(w, "     ")
	for d := 0; d < t.world; d++ {
		fmt.Fprintf(w, "%d", d%10)
	}
	fmt.Fprintln(w)
	for s := 0; s < t.world; s++ {
		fmt.Fprintf(w, "%4d ", s)
		for d := 0; d < t.world; d++ {
			fmt.Fprint(w, cellChar(t.Messages(s, d)))
		}
		fmt.Fprintln(w)
	}
}

func cellChar(n int64) string {
	if n <= 0 {
		return "."
	}
	decade := 1
	for n >= 10 {
		n /= 10
		decade++
	}
	if decade > 9 {
		decade = 9
	}
	return fmt.Sprint(decade)
}

// WriteSummary writes the aggregate statistics.
func (t *Traffic) WriteSummary(w io.Writer) {
	msgs, bytes := t.Totals()
	fmt.Fprintf(w, "messages: %d, bytes: %d\n", msgs, bytes)
	fmt.Fprintf(w, "avg distinct destinations/rank: %.2f (max %d of %d possible)\n",
		t.AvgDests(), t.MaxDests(), t.world-1)
	fmt.Fprintf(w, "pair density: %.2f\n", t.Density())
}
