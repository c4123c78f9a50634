package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"viampi/internal/mpi"
	"viampi/internal/obs"
	"viampi/internal/simnet"
)

// inputClasses is the number of distinct input sets: a seed s selects
// input set inputSeed(s) in 1..inputClasses, so every run's virtual-time
// results can be checked against a digest recorded for its input set.
const inputClasses = 8

func inputSeed(seed int64) int64 { return 1 + (seed%inputClasses+inputClasses)%inputClasses }

// size is a workload's shape. The full shape is what the benchmark measures;
// the tiny shape keeps the self-tests fast.
type size struct {
	msgRounds   int // msg-stream rounds
	churnSteps  int // conn-churn Sendrecv steps
	experiments []string
}

var (
	fullSize = size{msgRounds: 1536, churnSteps: 64}
	tinySize = size{msgRounds: 128, churnSteps: 12, experiments: []string{"fig2a", "fig8a"}}
)

// blockLen is the length of the seeded byte block every payload is a slice of.
const blockLen = 128 << 10

func seededBlock(rng *rand.Rand) []byte {
	b := make([]byte, blockLen)
	rng.Read(b)
	return b
}

// fault makes one sender transmit a corrupted copy of one payload; the
// receiver still checks against the pristine pattern, so the message must
// count as failed. Only the self-tests set it.
type fault struct {
	on          bool
	round, rank int
}

// msg-stream: 16 ranks on cLAN with on-demand connections. Every round each
// rank posts an Irecv and an Isend to its four fixed ring neighbours (±1, ±4)
// and waits for all eight; every 64th round adds an 8-double AllreduceF64.

const (
	msgRanks       = 16
	allreduceEvery = 64
	allreduceLen   = 8
)

var msgOffsets = [4]int{1, -1, 4, -4} // neighbour k receives from neighbour k^1's direction

type msgStream struct {
	rounds int
	block  []byte
	size   [][msgRanks][4]int32 // [round][sender][k]: bytes sent to sender+msgOffsets[k]
	off    [][msgRanks][4]int32 // offset of that payload in block
	vals   [][msgRanks][allreduceLen]float64
	sums   [][allreduceLen]float64
	fault  fault
}

func newMsgStream(seed int64, rounds int) *msgStream {
	rng := rand.New(rand.NewSource(seed))
	w := &msgStream{
		rounds: rounds,
		block:  seededBlock(rng),
		size:   make([][msgRanks][4]int32, rounds),
		off:    make([][msgRanks][4]int32, rounds),
	}
	for r := 0; r < rounds; r++ {
		for s := 0; s < msgRanks; s++ {
			for k := range msgOffsets {
				n := msgSize(rng)
				w.size[r][s][k] = int32(n)
				w.off[r][s][k] = int32(rng.Intn(blockLen - n + 1))
			}
		}
	}
	// Small integers sum exactly in float64, so the reduction has one
	// correct answer whatever order the algorithm combines in.
	w.vals = make([][msgRanks][allreduceLen]float64, rounds/allreduceEvery)
	w.sums = make([][allreduceLen]float64, len(w.vals))
	for i := range w.vals {
		for s := 0; s < msgRanks; s++ {
			for j := 0; j < allreduceLen; j++ {
				v := float64(rng.Intn(1000))
				w.vals[i][s][j] = v
				w.sums[i][j] += v
			}
		}
	}
	return w
}

// msgSize draws from the mix: ~80% 8 B–1 KB eager, 15% 2–4 KB eager, 5%
// 16–64 KB rendezvous (the eager threshold is 5000 bytes).
func msgSize(rng *rand.Rand) int {
	switch u := rng.Float64(); {
	case u < 0.80:
		return 8 + rng.Intn(1017)
	case u < 0.95:
		return 2048 + rng.Intn(2049)
	default:
		return 16384 + rng.Intn(65536-16384+1)
	}
}

// ops is the number of checked operations per run: every user message plus
// every rank's allreduce result.
func (w *msgStream) ops() int64 {
	return int64(w.rounds*msgRanks*len(msgOffsets) + len(w.vals)*msgRanks)
}

func (w *msgStream) config(seed int64) mpi.Config {
	return mpi.Config{Procs: msgRanks, Device: "clan", Policy: "ondemand", Seed: seed}
}

func (w *msgStream) main(r *mpi.Rank, run *runState) {
	c := r.World()
	me := r.Rank()
	var peers [4]int
	var bufs [4][]byte
	for k, o := range msgOffsets {
		peers[k] = (me + o + msgRanks) % msgRanks
		bufs[k] = make([]byte, 64<<10)
	}
	reqs := make([]*mpi.Request, 8)
	var faulty []byte
	for round := 0; round < w.rounds; round++ {
		for k := range peers {
			t0 := run.spanStart()
			q, err := c.Irecv(bufs[k], peers[k], 0)
			run.spanEnd(&run.post, t0)
			if err != nil {
				run.fail(err)
				return
			}
			reqs[k] = q
		}
		for k := range peers {
			n, o := w.size[round][me][k], w.off[round][me][k]
			data := w.block[o : o+n]
			if w.fault.on && w.fault.round == round && w.fault.rank == me && k == 0 {
				faulty = append(faulty[:0], data...)
				faulty[len(faulty)/2] ^= 0xFF
				data = faulty
			}
			t0 := run.spanStart()
			q, err := c.Isend(peers[k], 0, data)
			run.spanEnd(&run.post, t0)
			if err != nil {
				run.fail(err)
				return
			}
			reqs[4+k] = q
		}
		t0 := run.spanStart()
		err := r.Waitall(reqs...)
		run.spanEnd(&run.wait, t0)
		if err != nil {
			run.fail(err)
			return
		}
		for k, src := range peers {
			n, o := w.size[round][src][k^1], w.off[round][src][k^1]
			if reqs[k].Status().Count == int(n) && bytes.Equal(bufs[k][:n], w.block[o:o+n]) {
				run.ok++
				run.msgs++
			}
		}
		if round%allreduceEvery == allreduceEvery-1 {
			i := round / allreduceEvery
			t0 := run.spanStart()
			got, err := c.AllreduceF64(w.vals[i][me][:], mpi.SumF64)
			run.spanEnd(&run.allreduce, t0)
			if err != nil {
				run.fail(err)
				return
			}
			if len(got) == allreduceLen && [allreduceLen]float64(got) == w.sums[i] {
				run.ok++
			}
		}
	}
}

// channelUses counts per-rank channel uses: one per send and one per receive.
func (w *msgStream) channelUses() int64 { return int64(w.rounds * msgRanks * 2 * len(msgOffsets)) }

// conn-churn: 512 ranks on Berkeley VIA with on-demand connections capped at
// 8 live VIs per rank. Every step pairs the ranks up; each pair exchanges one
// 256-byte Sendrecv. A rank's partner lies at a ring offset drawn from a
// skewed distribution over ±12 offsets, so each rank cycles through 24
// partners and keeps evicting and reconnecting. Drawing per pair rather than
// per step averages the schedule's cost over the whole world, so every seed
// costs about the same.

const (
	churnRanks  = 512
	churnMaxVIs = 8
	churnBytes  = 256
	churnTries  = 8 // offset draws per rank before it sits a step out
)

var churnOffsets = [12]int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}

type connChurn struct {
	steps   int
	block   []byte
	partner [][]int32 // [step][rank]: exchange partner, -1 to sit out
	off     [][]int32 // [step][rank]: offset of the rank's payload in block
	pairs   int64     // rank-steps with a partner: the checked operations
	fault   fault
}

func newConnChurn(seed int64, steps int) *connChurn {
	rng := rand.New(rand.NewSource(seed))
	w := &connChurn{steps: steps, block: seededBlock(rng),
		partner: make([][]int32, steps), off: make([][]int32, steps)}
	// Skewed weights 1/sqrt(i+1): the near offsets recur often enough to
	// stay cached under the cap, the far ones keep forcing evictions.
	weight := func(i int) float64 { return 1 / math.Sqrt(float64(i+1)) }
	var total float64
	for i := range churnOffsets {
		total += weight(i)
	}
	draw := func() int {
		u := rng.Float64() * total
		i := 0
		for ; i < len(churnOffsets)-1; i++ {
			if u -= weight(i); u < 0 {
				break
			}
		}
		if rng.Intn(2) == 0 {
			return -churnOffsets[i]
		}
		return churnOffsets[i]
	}
	for s := 0; s < steps; s++ {
		part := make([]int32, churnRanks)
		for r := range part {
			part[r] = -1
		}
		// Greedy random matching: visit ranks in a seeded order and pair
		// each unmatched one with an unmatched rank at a drawn offset.
		for _, r := range rng.Perm(churnRanks) {
			for t := 0; t < churnTries && part[r] < 0; t++ {
				q := (r + draw() + churnRanks) % churnRanks
				if part[q] < 0 && q != r {
					part[r], part[q] = int32(q), int32(r)
					w.pairs += 2
				}
			}
		}
		w.partner[s] = part
		w.off[s] = make([]int32, churnRanks)
		for r := range w.off[s] {
			w.off[s][r] = int32(rng.Intn(blockLen - churnBytes + 1))
		}
	}
	return w
}

func (w *connChurn) ops() int64 { return w.pairs }

func (w *connChurn) config(seed int64) mpi.Config {
	return mpi.Config{Procs: churnRanks, Device: "bvia", Policy: "ondemand", MaxVIs: churnMaxVIs, Seed: seed}
}

func (w *connChurn) main(r *mpi.Rank, run *runState) {
	c := r.World()
	me := r.Rank()
	buf := make([]byte, churnBytes)
	var faulty []byte
	for s, part := range w.partner {
		p := int(part[me])
		if p < 0 {
			continue
		}
		o := w.off[s][me]
		data := w.block[o : o+churnBytes]
		if w.fault.on && w.fault.round == s && w.fault.rank == me {
			faulty = append(faulty[:0], data...)
			faulty[0] ^= 0xFF
			data = faulty
		}
		t0 := run.spanStart()
		st, err := c.Sendrecv(p, 0, data, p, 0, buf)
		run.spanEnd(&run.wait, t0)
		if err != nil {
			run.fail(err)
			return
		}
		po := w.off[s][p]
		if st.Count == churnBytes && bytes.Equal(buf, w.block[po:po+churnBytes]) {
			run.ok++
			run.msgs++
		}
	}
}

// channelUses counts per-rank channel uses: each exchange uses one channel.
func (w *connChurn) channelUses() int64 { return w.pairs }

// runState is one simulated run's bookkeeping: checked operations, the first
// error, and — on traced runs only — host-clock spans around each call into
// the mpi layer. The simulator runs exactly one rank goroutine at a time, so
// the ranks share it without locks.
type runState struct {
	traced bool
	ok     int64 // operations whose result checked out
	msgs   int64 // of those, user messages
	err    error

	post, wait, allreduce []int64 // span durations, ns

	runCall, firstMain, lastReturn, runReturn time.Time
	sim                                       *simnet.Sim
}

func (s *runState) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *runState) spanStart() time.Time {
	if !s.traced {
		return time.Time{}
	}
	return time.Now()
}

func (s *runState) spanEnd(into *[]int64, t0 time.Time) {
	if s.traced {
		*into = append(*into, int64(time.Since(t0)))
	}
}

// messageWorkload is what msg-stream and conn-churn share.
type messageWorkload interface {
	config(seed int64) mpi.Config
	main(r *mpi.Rank, run *runState)
	ops() int64
	channelUses() int64
}

// simResult is a message workload's checked outcome and layer counts.
type simResult struct {
	ops, failed int64
	digest      Digest
	world       *mpi.World
	run         *runState
	reg         *obs.Registry // traced runs only
}

// runMessages executes one message-workload run. With traced set it attaches
// an obs.Collector through mpi.Config.Obs and records host-clock spans.
func runMessages(w messageWorkload, seed int64, traced bool) simResult {
	cfg := w.config(seed)
	run := &runState{traced: traced}
	res := simResult{ops: w.ops(), run: run}
	if traced {
		cfg.Obs = obs.NewBus()
		res.reg = obs.NewRegistry()
		col := obs.NewCollector(res.reg)
		col.Attach(cfg.Obs)
		defer col.Detach()
	}
	run.runCall = time.Now()
	world, err := mpi.Run(cfg, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			run.sim = r.Proc().Sim()
		}
		if run.firstMain.IsZero() {
			run.firstMain = time.Now()
		}
		w.main(r, run)
		run.lastReturn = time.Now()
	})
	run.runReturn = time.Now()
	if err != nil {
		run.fail(err)
	}
	res.world = world
	res.failed = res.ops - run.ok
	if run.err != nil || world == nil || run.sim == nil {
		res.failed = res.ops
		return res
	}
	res.digest = worldDigest(world, run.sim.EventCount)
	return res
}

// worldDigest condenses a run's deterministic outputs: virtual elapsed time,
// scheduler event count, and a hash of every rank's counters and timings.
func worldDigest(w *mpi.World, events uint64) Digest {
	h := sha256.New()
	fmt.Fprintf(h, "elapsed=%d events=%d\n", w.Elapsed, events)
	for _, rs := range w.Ranks {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d\n", rs.Rank, rs.InitTime, rs.AppTime,
			rs.VisCreated, rs.VisUsed, rs.PeakChans, rs.PinnedPeak, rs.MsgsSent, rs.BytesSent)
	}
	return Digest{VirtualNS: int64(w.Elapsed), Events: events, SHA256: hex.EncodeToString(h.Sum(nil))}
}
