package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"viampi/internal/obs"
	"viampi/internal/simnet"
	"viampi/internal/sweep"
	"viampi/internal/via"
)

// TestEvictionFIFOOrder runs a phased shift pattern under a VI cap far below
// N-1: every phase talks to a fresh peer, so channels are continually
// evicted and re-established. Message payloads encode (src, phase, iter) and
// receivers verify them exactly — any reordering or loss across an
// evict→reconnect cycle fails loudly. The collector counters prove the cap
// actually forced evictions and reconnects rather than the test passing
// vacuously.
func TestEvictionFIFOOrder(t *testing.T) {
	const (
		n      = 6
		maxVIs = 2
		phases = n - 1
		iters  = 5
	)
	bus := obs.NewBus()
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)
	cfg := Config{Procs: n, Policy: "ondemand", MaxVIs: maxVIs,
		Deadline: 120 * simnet.Second, Seed: 7, Obs: bus}
	_, err := Run(cfg, func(r *Rank) {
		c := r.World()
		me := r.Rank()
		buf := make([]byte, 12)
		out := make([]byte, 12)
		for ph := 1; ph <= phases; ph++ {
			dst := (me + ph) % n
			src := (me - ph + n) % n
			for i := 0; i < iters; i++ {
				binary.LittleEndian.PutUint32(out[0:], uint32(me))
				binary.LittleEndian.PutUint32(out[4:], uint32(ph))
				binary.LittleEndian.PutUint32(out[8:], uint32(i))
				if _, err := c.Sendrecv(dst, ph, out, src, ph, buf); err != nil {
					r.Abort(1, err.Error())
				}
				gotSrc := int(binary.LittleEndian.Uint32(buf[0:]))
				gotPh := int(binary.LittleEndian.Uint32(buf[4:]))
				gotIt := int(binary.LittleEndian.Uint32(buf[8:]))
				if gotSrc != src || gotPh != ph || gotIt != i {
					r.Abort(1, fmt.Sprintf("rank %d phase %d iter %d: got (%d,%d,%d)",
						me, ph, i, gotSrc, gotPh, gotIt))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev := reg.Counter("conn.evictions"); ev == 0 {
		t.Error("no evictions recorded: cap never engaged")
	}
	if rc := reg.Counter("events.conn.reconnect"); rc == 0 {
		t.Error("no reconnects recorded: eviction never round-tripped")
	}
}

// TestEvictionDistinctDests runs the phased shift pattern under a VI cap of
// 2, so each rank's channel to an earlier partner is evicted before the run
// ends. RankStats.DistinctDests must still count every peer the rank
// addressed — evicted channels included — and agree with the traffic matrix
// folded from the bus.
func TestEvictionDistinctDests(t *testing.T) {
	const n = 6
	bus := obs.NewBus()
	traffic := obs.NewTraffic()
	traffic.Attach(bus)
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)
	cfg := Config{Procs: n, Policy: "ondemand", MaxVIs: 2,
		Deadline: 120 * simnet.Second, Seed: 7, Obs: bus}
	w, err := Run(cfg, func(r *Rank) {
		c := r.World()
		me := r.Rank()
		buf := make([]byte, 8)
		for ph := 1; ph < n; ph++ {
			if _, err := c.Sendrecv((me+ph)%n, ph, []byte("distinct"), (me-ph+n)%n, ph, buf); err != nil {
				r.Abort(1, err.Error())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("conn.evictions") == 0 {
		t.Fatal("no evictions recorded: the cap never engaged, so the check is vacuous")
	}
	for _, rs := range w.Ranks {
		if rs.DistinctDests != n-1 {
			t.Errorf("rank %d: DistinctDests = %d, want %d (evicted peers forgotten)", rs.Rank, rs.DistinctDests, n-1)
		}
		if traced := len(traffic.Dests(rs.Rank)); rs.DistinctDests != traced {
			t.Errorf("rank %d: DistinctDests = %d, traffic matrix counts %d", rs.Rank, rs.DistinctDests, traced)
		}
	}
}

// TestEvictionRandomProgramEquivalence requires the random program suite to
// produce bit-identical per-rank checksums with and without a VI cap: the
// eviction/reconnect machinery must be invisible to MPI semantics.
func TestEvictionRandomProgramEquivalence(t *testing.T) {
	const n = 6
	for seed := int64(1); seed <= 3; seed++ {
		prog := randProgram(seed, n)
		run := func(cap int) [][]byte {
			results := make([][]byte, n)
			cfg := Config{Procs: n, Policy: "ondemand", MaxVIs: cap,
				Deadline: 120 * simnet.Second, Seed: seed}
			if _, err := Run(cfg, func(r *Rank) { results[r.Rank()] = prog(r) }); err != nil {
				t.Fatalf("seed %d cap %d: %v", seed, cap, err)
			}
			return results
		}
		uncapped, capped := run(0), run(3)
		for rk := range uncapped {
			if !bytes.Equal(uncapped[rk], capped[rk]) {
				t.Fatalf("seed %d: rank %d differs under MaxVIs=3", seed, rk)
			}
		}
	}
}

// TestFaultMatrix replays the random program suite under injected
// connection-establishment faults — drops, NACK refusals, delays, and all
// three combined — across every connection policy, requiring per-rank
// checksums identical to the fault-free reference. Establishment retries
// must heal every fault without losing or reordering a single parked send.
func TestFaultMatrix(t *testing.T) {
	const n = 6
	plans := []struct {
		name string
		plan func() *via.FaultPlan
	}{
		{"drop", func() *via.FaultPlan { return &via.FaultPlan{DropConnReq: 0.3} }},
		{"refuse", func() *via.FaultPlan { return &via.FaultPlan{RefuseConnReq: 0.3} }},
		{"delay", func() *via.FaultPlan {
			return &via.FaultPlan{DelayConnReq: 0.5, ConnReqDelay: 300 * simnet.Microsecond}
		}},
		{"combined", func() *via.FaultPlan {
			return &via.FaultPlan{DropConnReq: 0.2, RefuseConnReq: 0.2,
				DelayConnReq: 0.3, ConnReqDelay: 200 * simnet.Microsecond}
		}},
	}
	seeds := []int64{1, 2}
	policies := []string{"static-cs", "static-p2p", "ondemand"}

	// matrixRun executes one cell — a full world under one (seed, policy,
	// fault plan) — and returns the per-rank checksums. Each job builds its
	// own program closure and result slice, so cells are hermetic and the
	// whole matrix fans out over the batch runner.
	matrixRun := func(seed int64, pol string, plan *via.FaultPlan) ([][]byte, error) {
		prog := randProgram(seed, n)
		results := make([][]byte, n)
		cfg := Config{Procs: n, Policy: pol, Deadline: 120 * simnet.Second,
			Seed: seed, Faults: plan}
		if _, err := Run(cfg, func(r *Rank) { results[r.Rank()] = prog(r) }); err != nil {
			return nil, err
		}
		return results, nil
	}

	// Stage 1: fault-free references, one per (seed, policy).
	var refJobs []sweep.Job[[][]byte]
	for _, seed := range seeds {
		for _, pol := range policies {
			seed, pol := seed, pol
			refJobs = append(refJobs, sweep.Job[[][]byte]{
				ID:  fmt.Sprintf("ref/seed=%d/%s", seed, pol),
				Run: func() ([][]byte, error) { return matrixRun(seed, pol, nil) },
			})
		}
	}
	refs, err := sweep.Values(sweep.Run(sweep.Options{}, refJobs))
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	// Stage 2: every fault plan against its reference.
	var faultJobs []sweep.Job[struct{}]
	for i, seed := range seeds {
		for j, pol := range policies {
			ref := refs[i*len(policies)+j]
			for _, pl := range plans {
				seed, pol, pl := seed, pol, pl
				faultJobs = append(faultJobs, sweep.Job[struct{}]{
					ID: fmt.Sprintf("seed=%d/%s/%s", seed, pol, pl.name),
					Run: func() (struct{}, error) {
						results, err := matrixRun(seed, pol, pl.plan())
						if err != nil {
							return struct{}{}, err
						}
						for rk := range results {
							if !bytes.Equal(ref[rk], results[rk]) {
								return struct{}{}, fmt.Errorf("seed %d %s %s: rank %d checksum differs from fault-free run",
									seed, pol, pl.name, rk)
							}
						}
						return struct{}{}, nil
					},
				})
			}
		}
	}
	for _, r := range sweep.Run(sweep.Options{}, faultJobs) {
		if r.Err != nil {
			t.Error(r.Err)
		}
	}
}

// TestFaultRetrySucceeds pins the NACK-then-retry path directly: the target
// endpoint refuses all connections during a window covering the first
// attempt, so establishment succeeds only through timeout/backoff retry.
func TestFaultRetrySucceeds(t *testing.T) {
	bus := obs.NewBus()
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)
	plan := &via.FaultPlan{Unavailable: []via.FaultWindow{
		{Ep: 1, From: 0, To: simnet.Time(5 * simnet.Millisecond)},
	}}
	msg := []byte("made it through the outage")
	cfg := Config{Procs: 2, Policy: "ondemand", Faults: plan,
		Deadline: 120 * simnet.Second, Seed: 3, Obs: bus}
	world, err := Run(cfg, func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			if err := c.Send(1, 9, msg); err != nil {
				r.Abort(1, err.Error())
			}
		} else {
			// Stay out of MPI until the outage ends: posting the receive
			// earlier would initiate a reverse connection from the healthy
			// endpoint and heal the fault without any retry.
			r.Proc().Sleep(6 * simnet.Millisecond)
			buf := make([]byte, 64)
			st, err := c.Recv(buf, 0, 9)
			if err != nil {
				r.Abort(1, err.Error())
			}
			if !bytes.Equal(buf[:st.Count], msg) {
				r.Abort(1, "payload corrupted across retries")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if world.Net.ConnReqsRefused == 0 {
		t.Error("no refusals recorded: the unavailability window never engaged")
	}
	if reg.Counter("conn.retries") == 0 {
		t.Error("no retries recorded: establishment should have needed at least one")
	}
}

// TestEvictionRecyclesEagerPool churns connections through the eager-pool
// free list. Under MaxVIs: 1 with XOR pairings every rank switches partner
// at once, so both ends of a channel usually pick each other as the victim:
// crossing BYEs, whose teardown runs inside the CQ drain. Messages alternate
// between near-threshold eager sizes and 8 bytes, so a recycled buffer
// holds the stale tail of a longer message when a short one lands in it;
// every payload, every Status.Count and the untouched tail of every receive
// buffer must still check exactly. After each partner the free list's
// ownership rule is checked (checkEagerFree).
func TestEvictionRecyclesEagerPool(t *testing.T) {
	// Both devices: on bvia the crossing teardown runs inside handlePacket
	// (the descriptor's re-post fails); cLAN's faster DISC also lands
	// completed descriptors in the drain's unknown-VI branch.
	for _, dev := range []string{"bvia", "clan"} {
		t.Run(dev, func(t *testing.T) { recycleChurn(t, dev) })
	}
}

func recycleChurn(t *testing.T, device string) {
	const (
		n      = 8
		rounds = 3
		iters  = 4
		big    = 4900 // just under the default 5000-byte eager threshold
	)
	bus := obs.NewBus()
	reg := obs.NewRegistry()
	obs.NewCollector(reg).Attach(bus)
	fill := func(b []byte, src, dst, k, i int) {
		for j := range b {
			b[j] = byte(src*31 + dst*17 + k*7 + i*13 + j)
		}
	}
	cfg := Config{Procs: n, Device: device, Policy: "ondemand", MaxVIs: 1,
		Deadline: 120 * simnet.Second, Seed: 5, Obs: bus}
	_, err := Run(cfg, func(r *Rank) {
		c := r.World()
		me := r.Rank()
		out := make([]byte, big)
		in := make([]byte, big+64)
		want := make([]byte, big)
		for round := 0; round < rounds; round++ {
			for k := 1; k < n; k++ {
				peer := me ^ k
				for i := 0; i < iters; i++ {
					size := 8
					if (round+k+i)%2 == 0 {
						size = big
					}
					fill(out[:size], me, peer, k, i)
					fill(want[:size], peer, me, k, i)
					for j := range in {
						in[j] = 0xEE
					}
					st, err := c.Sendrecv(peer, k, out[:size], peer, k, in)
					if err != nil {
						r.Abort(1, err.Error())
					}
					if st.Count != size || !bytes.Equal(in[:size], want[:size]) {
						r.Abort(1, fmt.Sprintf("rank %d from %d (k=%d i=%d): count %d want %d, or payload differs",
							me, peer, k, i, st.Count, size))
					}
					for _, b := range in[size:] {
						if b != 0xEE {
							r.Abort(1, fmt.Sprintf("rank %d: bytes past Count written (k=%d i=%d)", me, k, i))
						}
					}
				}
				checkEagerFree(t, r)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev := reg.Counter("conn.evictions"); ev == 0 {
		t.Error("no evictions recorded: cap never engaged")
	}
	if rc := reg.Counter("events.conn.reconnect"); rc == 0 {
		t.Error("no reconnects recorded: eviction never round-tripped")
	}
}

// checkEagerFree asserts the eager free list's ownership rule: no
// descriptor is on it twice, none is pending (still posted), and none is in
// the pool of a live channel whose VI still holds it.
func checkEagerFree(t *testing.T, r *Rank) {
	t.Helper()
	free := make(map[*via.Descriptor]bool, len(r.eagerFree))
	for _, d := range r.eagerFree {
		if free[d] {
			t.Errorf("rank %d: descriptor %p on the eager free list twice", r.rank, d)
		}
		free[d] = true
		if d.Status == via.StatusPending {
			t.Errorf("rank %d: free descriptor %p is still posted", r.rank, d)
		}
		if len(d.Buf) != r.cfg.eagerBufSize() {
			t.Errorf("rank %d: free descriptor buffer is %d bytes, want %d", r.rank, len(d.Buf), r.cfg.eagerBufSize())
		}
	}
	for _, cs := range r.active {
		for _, d := range cs.pool {
			if free[d] && d.VI() == cs.ch.Vi {
				t.Errorf("rank %d: free descriptor %p posted on the live VI to %d", r.rank, d, cs.peer)
			}
		}
	}
}

// TestEvictionReconnectAllocBudget pins what the free list buys: once warm,
// an evict→reconnect cycle re-posts recycled descriptors instead of
// allocating a fresh eager pool. Under MaxVIs: 1 with XOR pairings every
// phase evicts every rank's channel and connects each pair anew; rank 0
// runs its phases under testing.AllocsPerRun and MemStats.TotalAlloc. One
// evict→reconnect, both ends included, must allocate less than one pool's
// buffers.
func TestEvictionReconnectAllocBudget(t *testing.T) {
	const (
		n    = 4
		warm = 2 * (n - 1)
		runs = 20 // AllocsPerRun calls its function runs+1 times
	)
	var allocs float64
	var allocBytes uint64
	var poolBytes int
	created := make([]int, n)
	cfg := Config{Procs: n, Device: "bvia", Policy: "ondemand", MaxVIs: 1,
		Deadline: 120 * simnet.Second, Seed: 1}
	_, err := Run(cfg, func(r *Rank) {
		c := r.World()
		me := r.Rank()
		out, in := make([]byte, 8), make([]byte, 8)
		ph := 0
		phase := func() {
			peer := me ^ (1 + ph%(n-1))
			ph++
			if _, err := c.Sendrecv(peer, 0, out, peer, 0, in); err != nil {
				r.Abort(1, err.Error())
			}
		}
		for ph < warm {
			phase()
		}
		created[me] = r.port.Stats().VisCreated
		if me != 0 {
			for i := 0; i <= runs; i++ {
				phase()
			}
		} else {
			poolBytes = r.cfg.CreditCount * r.cfg.eagerBufSize()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, phase)
			runtime.ReadMemStats(&after)
			allocBytes = after.TotalAlloc - before.TotalAlloc
		}
		created[me] = r.port.Stats().VisCreated - created[me]
	})
	if err != nil {
		t.Fatal(err)
	}
	vis := 0
	for _, k := range created {
		vis += k
	}
	if vis != n*(runs+1) {
		t.Fatalf("%d VIs created in %d phases, want %d: the cap did not evict and reconnect every phase",
			vis, runs+1, n*(runs+1))
	}
	conns := float64(vis / 2)
	perConn := float64(allocBytes) / conns
	t.Logf("per evict→reconnect: %.0f allocs, %.0f bytes; one eager pool is %d bytes",
		allocs*(runs+1)/conns, perConn, poolBytes)
	if perConn >= float64(poolBytes) {
		t.Errorf("an evict→reconnect cycle allocates %.0f bytes, want < %d (one eager pool)",
			perConn, poolBytes)
	}
}
