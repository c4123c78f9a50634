package obs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// send is one user message for the traffic feeds below.
type send struct{ src, dst, bytes int }

// feedTraffic runs sends through a bus into a fresh Traffic and closes the
// run with an EvRunEnd for a world of size ranks.
func feedTraffic(size int, sends ...send) *Traffic {
	bus := NewBus()
	tr := NewTraffic()
	tr.Attach(bus)
	for i, s := range sends {
		bus.Emit(Event{T: int64(10 * i), Kind: EvMsgSend, Rank: int32(s.src), Peer: int32(s.dst), A: int64(s.bytes)})
	}
	bus.Emit(Event{T: int64(10 * len(sends)), Kind: EvRunEnd, Rank: -1, Peer: -1, A: int64(size)})
	tr.Detach()
	return tr
}

func TestTrafficRecordAndCounts(t *testing.T) {
	tr := feedTraffic(4,
		send{0, 1, 100}, send{0, 1, 50}, send{1, 2, 25},
		send{9, 1, 1}) // out of the world: not counted
	if p := tr.pairs[pairKey(0, 1)]; p.msgs != 2 || p.bytes != 150 {
		t.Fatalf("0->1: %d msgs %d bytes", p.msgs, p.bytes)
	}
	if msgs, bytes := tr.Totals(); msgs != 3 || bytes != 175 {
		t.Fatalf("totals: %d %d", msgs, bytes)
	}
	if tr.world != 4 {
		t.Fatalf("world = %d, want 4 (from EvRunEnd)", tr.world)
	}
}

func TestTrafficDests(t *testing.T) {
	tr := feedTraffic(5,
		send{2, 4, 1}, send{2, 0, 1}, send{2, 4, 1},
		send{2, 2, 1}) // self: not a destination
	ds := tr.Dests(2)
	if len(ds) != 2 || ds[0] != 0 || ds[1] != 4 {
		t.Fatalf("dests = %v", ds)
	}
	if tr.MaxDests() != 2 {
		t.Fatalf("max = %d", tr.MaxDests())
	}
	if got := tr.AvgDests(); got != 2.0/5 {
		t.Fatalf("avg = %v", got)
	}
}

func TestTrafficDensity(t *testing.T) {
	if d := feedTraffic(3).Density(); d != 0 {
		t.Fatalf("empty density = %v", d)
	}
	var all []send
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			if s != d {
				all = append(all, send{s, d, 1})
			}
		}
	}
	if d := feedTraffic(3, all...).Density(); d != 1.0 {
		t.Fatalf("full density = %v", d)
	}
}

func TestTrafficRenderMatrixAndSummary(t *testing.T) {
	var sends []send
	for i := 0; i < 123; i++ {
		sends = append(sends, send{0, 1, 10})
	}
	tr := feedTraffic(3, append(sends, send{1, 2, 10})...)
	var buf bytes.Buffer
	tr.WriteMatrix(&buf)
	if out := buf.String(); !strings.Contains(out, ".3.") { // 123 msgs => decade 3
		t.Fatalf("matrix missing decade cell:\n%s", out)
	}
	buf.Reset()
	tr.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "messages: 124") {
		t.Fatalf("summary:\n%s", buf.String())
	}
}

func TestTrafficCellChar(t *testing.T) {
	cases := map[int64]string{0: ".", 1: "1", 9: "1", 10: "2", 99: "2", 100: "3", 1e12: "9"}
	for n, want := range cases {
		if got := cellChar(n); got != want {
			t.Errorf("cellChar(%d) = %s, want %s", n, got, want)
		}
	}
}

// Property: the sparse pair counts agree with an independently-maintained
// reference.
func TestTrafficPropertyMatrixConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		var sends []send
		ref := map[[2]int]int64{}
		for _, v := range raw {
			s, d := int(v)%8, int(v>>8)%8
			sends = append(sends, send{s, d, 1})
			ref[[2]int{s, d}]++
		}
		tr := feedTraffic(8, sends...)
		for k, n := range ref {
			if tr.Messages(k[0], k[1]) != n {
				return false
			}
		}
		return len(tr.pairs) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTrafficHeapLinearInPairs feeds the matrix a 4096-rank ring — every
// rank exchanging several messages with both neighbours — and bounds the
// heap it retains by the pairs that actually talked. Two dense world×world
// int64 matrices would take 268 MB at this size.
func TestTrafficHeapLinearInPairs(t *testing.T) {
	const (
		n       = 4096
		rounds  = 4
		perPair = 128 // bytes of retained heap allowed per communicating pair
		slack   = 64 << 10
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	bus := NewBus()
	tr := NewTraffic()
	tr.Attach(bus)
	for round := 0; round < rounds; round++ {
		for r := 0; r < n; r++ {
			for _, peer := range []int{(r + 1) % n, (r + n - 1) % n} {
				bus.Emit(Event{T: int64(round), Kind: EvMsgSend, Rank: int32(r), Peer: int32(peer), A: 64})
			}
		}
	}
	bus.Emit(Event{T: rounds, Kind: EvRunEnd, Rank: -1, Peer: -1, A: n})

	runtime.GC()
	runtime.ReadMemStats(&after)
	pairs := len(tr.pairs)
	if pairs != 2*n {
		t.Fatalf("pairs = %d, want %d (two neighbours per rank)", pairs, 2*n)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(pairs*perPair + slack); grew > limit {
		t.Fatalf("traffic matrix retained %d bytes for %d pairs (limit %d): state is not O(pairs)", grew, pairs, limit)
	}
	if got := tr.AvgDests(); got != 2 {
		t.Fatalf("ring avg dests = %v, want 2", got)
	}
	runtime.KeepAlive(tr)
}
