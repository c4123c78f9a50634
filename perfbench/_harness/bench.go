package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"viampi/internal/obs"
)

// repResult is what one child process reports about one repetition.
type repResult struct {
	StartUnixNs int64              `json:"start_unix_ns"` // start of the timed window
	WallNs      int64              `json:"wall_ns"`
	CPUNs       int64              `json:"cpu_ns"` // user+system CPU time of the timed window
	Ops         int64              `json:"ops"`
	Failed      int64              `json:"failed"`
	Msgs        int64              `json:"msgs"` // verified user messages
	Events      uint64             `json:"events"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	Mallocs     uint64             `json:"mallocs"`
	Digest      Digest             `json:"digest"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Error       string             `json:"error,omitempty"`
}

// childMain runs one repetition (or, with -rungs, the ladder) and prints its
// repResult as one JSON line.
func childMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed (1..8)")
	traced := fs.Bool("traced", false, "record spans and layer counts")
	workers := fs.Int("workers", 1, "figures-quick worker pool size")
	tiny := fs.Bool("tiny", false, "self-test size")
	rungs := fs.Bool("rungs", false, "run the per-layer ladder instead of a workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var res repResult
	var err error
	if *rungs {
		res.Layers, err = runRungs()
	} else {
		sz, want := tinySize, Digests(nil)
		if !*tiny {
			sz = fullSize
			want, err = recordedDigests()
		}
		if err == nil {
			res, err = runOnce(*workload, *seed, *traced, sz, *workers, want)
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runOnce runs one repetition of a workload on input seed. With want set, the
// run's virtual-time digest must match the recorded one; a mismatch fails
// every operation of a message workload, or the table concerned for
// figures-quick.
func runOnce(name string, seed int64, traced bool, sz size, workers int, want Digests) (repResult, error) {
	var res repResult
	switch name {
	case "msg-stream", "conn-churn":
		var w messageWorkload
		if name == "msg-stream" {
			w = newMsgStream(seed, sz.msgRounds)
		} else {
			w = newConnChurn(seed, sz.churnSteps)
		}
		var r simResult
		timed(&res, func() { r = runMessages(w, seed, traced) })
		res.Ops, res.Failed, res.Msgs, res.Digest = r.ops, r.failed, r.run.msgs, r.digest
		if r.run.sim != nil {
			res.Events = r.run.sim.EventCount
		}
		if r.run.err != nil {
			res.Error = r.run.err.Error()
		}
		if want != nil {
			if rec, ok := want.lookup(name, seed); !ok || !rec.sameRun(r.digest) {
				res.Failed = res.Ops
				res.Error = fmt.Sprintf("virtual-time digest %+v, recorded %+v", r.digest, rec)
			}
		}
		if traced {
			res.Layers = messageLayers(w, r)
		}
	case "figures-quick":
		var r figuresResult
		timed(&res, func() { r = runFigures(experimentIDs(sz), seed, workers, traced) })
		res.Ops, res.Failed, res.Digest = r.ops, r.failed, r.digest
		if want != nil {
			rec, _ := want.lookup(name, seed)
			for id, got := range r.digest.Tables {
				if rec.Tables[id] != got {
					res.Failed++
					res.Error = fmt.Sprintf("table %s digest %s, recorded %q", id, got, rec.Tables[id])
				}
			}
		}
		if traced {
			res.Layers = figuresLayers(r)
		}
	default:
		return res, fmt.Errorf("unknown workload %q", name)
	}
	return res, nil
}

// timed runs fn as the timed window and records its wall time and heap
// allocation.
func timed(res *repResult, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	t0 := time.Now()
	res.StartUnixNs = t0.UnixNano()
	fn()
	res.WallNs = int64(time.Since(t0))
	res.CPUNs = cpuTime() - c0
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Mallocs = after.Mallocs - before.Mallocs
}

// messageLayers reads one traced message-workload run's per-layer counts from
// the public stats structs and the obs.Collector, and its span percentiles.
func messageLayers(w messageWorkload, r simResult) map[string]float64 {
	if r.world == nil || r.run.sim == nil {
		return nil
	}
	net := r.world.Net
	cl := net.Cluster()
	var wireBytes int64
	for n := 0; n < cl.Config().Nodes; n++ {
		wireBytes += cl.TxBytes(n)
	}
	var descs, created, sent int64
	for _, p := range net.Ports() {
		st := p.Stats()
		descs += st.MsgsSent + st.MsgsRecv
		created += int64(st.VisCreated)
		sent += st.MsgsSent
	}
	livePeak := 0
	for _, rs := range r.world.Ranks {
		livePeak = max(livePeak, rs.PeakChans)
	}
	reg := r.reg
	connects := reg.Counter("events." + obs.EvConnUp.String())
	userMsgs := reg.Counter("events." + obs.EvMsgSend.String())
	run := r.run
	return map[string]float64{
		"simnet.events":          float64(run.sim.EventCount),
		"fabric.frames":          float64(cl.FramesDelivered),
		"fabric.bytes":           float64(wireBytes),
		"via.descriptors":        float64(descs),
		"via.vis_created":        float64(created),
		"via.vis_live_peak":      float64(livePeak),
		"via.failed":             float64(net.DroppedNoDescriptor + net.DiscardedSends),
		"core.connects":          float64(connects),
		"core.evictions":         float64(reg.Counter("conn.evictions")),
		"core.reconnects":        float64(reg.Hist("conn.reconnect_ns", nil).Count()),
		"core.retries":           float64(reg.Counter("conn.retries")),
		"core.fifo_drained":      float64(reg.Counter("fifo.drained_total")),
		"core.channel_hit_ratio": 1 - float64(connects)/float64(w.channelUses()),
		"mpi.user_msgs":          float64(userMsgs),
		"mpi.protocol_msgs":      float64(sent - userMsgs),
		"mpi.user_bytes":         float64(reg.Counter("msg.bytes_sent")),
		"mpi.post_ns.p50":        percentile(run.post, 0.50),
		"mpi.post_ns.p99":        percentile(run.post, 0.99),
		"mpi.wait_ns.p50":        percentile(run.wait, 0.50),
		"mpi.wait_ns.p99":        percentile(run.wait, 0.99),
		"mpi.allreduce_ns.p50":   percentile(run.allreduce, 0.50),
		"mpi.boot_ms":            float64(run.firstMain.Sub(run.runCall).Nanoseconds()) / 1e6,
		"mpi.finalize_ms":        float64(run.runReturn.Sub(run.lastReturn).Nanoseconds()) / 1e6,
	}
}

// figuresLayers reports one traced figures-quick pass: host seconds per named
// experiment, the rest summed, and the sweep runner's timeline.
func figuresLayers(r figuresResult) map[string]float64 {
	m := map[string]float64{"bench.rest.host_s": 0}
	named := map[string]bool{}
	for _, id := range namedExperiments {
		named[id] = true
	}
	for id, s := range r.hostS {
		if named[id] {
			m["bench."+id+".host_s"] = s
		} else {
			m["bench.rest.host_s"] += s
		}
	}
	p := r.sweep
	m["sweep.jobs"] = float64(p.jobs)
	m["sweep.cell_s.max"] = p.cellMax
	m["sweep.cell_s.sum"] = p.cellSum
	m["sweep.tail_idle_s"] = p.tailIdleS
	return m
}

// child is one spawned repetition and what the parent measured around it.
type child struct {
	res    repResult
	rssMB  float64 // peak resident set, from the child's rusage
	setupS float64 // from spawning the child to the start of its timed window
	err    error
}

// spawn runs this binary as a child and waits for it.
func spawn(ctx context.Context, args ...string) child {
	exe, err := os.Executable()
	if err != nil {
		return child{err: err}
	}
	cmd := exec.CommandContext(ctx, exe, append([]string{"child"}, args...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return child{err: fmt.Errorf("child %v: %w", args, err)}
	}
	var c child
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	if err := json.Unmarshal(out.Bytes(), &c.res); err != nil {
		return child{err: fmt.Errorf("child %v: bad report: %w", args, err)}
	}
	c.setupS = float64(c.res.StartUnixNs-t0.UnixNano()) / 1e9
	return c
}

// benchMain is the command-line entry point: it runs repetitions in child
// processes and prints the result.
func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "msg-stream, conn-churn or figures-quick")
	seed := fs.Int64("seed", 1, "workload seed; inputs come from input set 1+seed mod 8")
	secs := fs.Int("seconds", 20, "how long to keep starting repetitions")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	tiny := fs.Bool("tiny", false, "self-test size: small inputs, no recorded digests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *secs < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *secs)
	}
	// A hung repetition is killed rather than left to stall the run.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	workers := runtime.NumCPU()
	in := inputSeed(*seed)
	fmt.Fprintln(stdout, hostShape())
	fmt.Fprintf(stdout, "workload=%s seed=%d input-set=%d seconds=%d trace=%d workers=%d\n",
		*workload, *seed, in, *secs, *trace, workers)
	b := &batch{ctx: ctx, workload: *workload, in: in, tiny: *tiny, out: stdout}
	var layers map[string]float64
	if *trace == 1 {
		layers = b.rungs() // before the window: the ladder is not a repetition
	}
	deadline := time.Now().Add(time.Duration(*secs) * time.Second)
	if *trace == 0 {
		for len(b.plain) == 0 || time.Now().Before(deadline) {
			b.plain = append(b.plain, b.rep(false, workers))
		}
		return writeResult(stdout, b.attempted, b.failed, b.endToEnd(), endToEnd)
	}
	if *workload == "figures-quick" {
		b.figuresTraced(layers, workers)
	} else {
		for len(b.traced) == 0 || time.Now().Before(deadline) {
			b.plain = append(b.plain, b.rep(false, workers))
			b.traced = append(b.traced, b.rep(true, workers))
		}
		b.messagesTraced(layers)
	}
	if w, t := b.medianWall(b.plain), b.medianWall(b.traced); w > 0 && t > 0 {
		layers["obs.trace_overhead_pct"] = (t/w - 1) * 100
	}
	// Every per-layer metric is printed; a layer the workload does not
	// exercise reads 0 (see README.md). The parallel sweep metrics are
	// the exception: with one worker they are omitted, not zeroed.
	values := map[string]float64{}
	for _, d := range perLayer {
		if parallelOnly[d.name] && workers < 2 {
			continue
		}
		values[d.name] = layers[d.name]
	}
	return writeResult(stdout, b.attempted, b.failed, values, perLayer)
}

// batch accumulates the repetitions of one benchmark run.
type batch struct {
	ctx               context.Context
	workload          string
	in                int64
	tiny              bool
	out               io.Writer
	plain, traced     []child
	attempted, failed int64
}

// rep runs one repetition, books its operations and records it with the
// plain or traced repetitions. A child that fails to report fails every
// operation it was due to check.
func (b *batch) rep(traced bool, workers int) child {
	args := []string{"-workload", b.workload, "-seed", strconv.FormatInt(b.in, 10),
		"-workers", strconv.Itoa(workers), "-traced=" + strconv.FormatBool(traced), "-tiny=" + strconv.FormatBool(b.tiny)}
	c := spawn(b.ctx, args...)
	if c.err != nil {
		c.res.Ops = b.expectedOps()
		c.res.Failed = c.res.Ops
		c.res.Error = c.err.Error()
	}
	b.attempted += c.res.Ops
	b.failed += c.res.Failed
	kind := "plain"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(b.out, "rep %-6s workers=%d wall=%.4fs cpu=%.4fs ops=%d failed=%d alloc=%.1fMB rss=%.1fMB setup=%.4fs events=%d virtual_ns=%d\n",
		kind, workers, float64(c.res.WallNs)/1e9, float64(c.res.CPUNs)/1e9, c.res.Ops, c.res.Failed,
		float64(c.res.AllocBytes)/1e6, c.rssMB, c.setupS, c.res.Events, c.res.Digest.VirtualNS)
	if c.res.Error != "" {
		fmt.Fprintf(b.out, "rep error: %s\n", c.res.Error)
	}
	return c
}

func (b *batch) expectedOps() int64 {
	sz := fullSize
	if b.tiny {
		sz = tinySize
	}
	switch b.workload {
	case "msg-stream":
		return newMsgStream(b.in, sz.msgRounds).ops()
	case "conn-churn":
		return newConnChurn(b.in, sz.churnSteps).ops()
	default:
		return int64(len(experimentIDs(sz)))
	}
}

func (b *batch) medianWall(cs []child) float64 {
	return b.median(cs, func(c child) float64 { return float64(c.res.WallNs) / 1e9 })
}

func (b *batch) median(cs []child, f func(child) float64) float64 {
	var xs []float64
	for _, c := range cs {
		if c.err == nil {
			xs = append(xs, f(c))
		}
	}
	return median(xs)
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics, each
// the median over repetitions, and prints the per-workload extras.
func (b *batch) endToEnd() map[string]float64 {
	cs := b.plain
	wall := b.medianWall(cs)
	m := map[string]float64{
		"wall_s": wall,
		"ops_per_s": b.median(cs, func(c child) float64 {
			return float64(c.res.Ops-c.res.Failed) / (float64(c.res.WallNs) / 1e9)
		}),
		"alloc_mb":    b.median(cs, func(c child) float64 { return float64(c.res.AllocBytes) / 1e6 }),
		"peak_rss_mb": b.median(cs, func(c child) float64 { return c.rssMB }),
		"setup_s":     b.median(cs, func(c child) float64 { return c.setupS }),
	}
	if b.workload != "figures-quick" {
		msgs := b.median(cs, func(c child) float64 { return float64(c.res.Msgs) / (float64(c.res.WallNs) / 1e9) })
		evs := b.median(cs, func(c child) float64 { return float64(c.res.Events) / (float64(c.res.WallNs) / 1e9) })
		fmt.Fprintf(b.out, "%-34s %16.6g msg/s\n%-34s %16.6g events/s\n", "msgs_per_s", msgs, "sim_events_per_s", evs)
	}
	fmt.Fprintf(b.out, "repetitions: %d\n", len(cs))
	return m
}

// rungs runs the ladder in its own child process.
func (b *batch) rungs() map[string]float64 {
	c := spawn(b.ctx, "-rungs")
	if c.err != nil {
		fmt.Fprintf(b.out, "rungs error: %v\n", c.err)
		b.attempted++
		b.failed++
		return map[string]float64{}
	}
	return c.res.Layers
}

// messagesTraced merges the traced repetitions' layer metrics (medians) and
// derives the ones that need an untraced baseline.
func (b *batch) messagesTraced(layers map[string]float64) {
	keys := map[string]bool{}
	for _, c := range b.traced {
		for k := range c.res.Layers {
			keys[k] = true
		}
	}
	for k := range keys {
		layers[k] = b.median(b.traced, func(c child) float64 { return c.res.Layers[k] })
	}
	if ev := layers["simnet.events"]; ev > 0 {
		layers["simnet.host_ns_per_event"] = b.medianWall(b.plain) * 1e9 / ev
	}
	if um := layers["mpi.user_msgs"]; um > 0 {
		layers["mpi.allocs_per_msg"] = b.median(b.plain, func(c child) float64 { return float64(c.res.Mallocs) }) / um
	}
}

// figuresTraced runs one untraced pass and one traced pass at the full
// worker count, and a traced pass at one worker whose completion gaps are
// the cells' own times.
func (b *batch) figuresTraced(layers map[string]float64, workers int) {
	b.plain = append(b.plain, b.rep(false, workers))
	par := b.rep(true, workers)
	b.traced = append(b.traced, par)
	// The one-worker pass times the cells; it is not part of the
	// traced-versus-untraced overhead comparison.
	seq := par
	if workers > 1 {
		seq = b.rep(true, 1)
	}
	for k, v := range par.res.Layers {
		layers[k] = v
	}
	layers["sweep.cell_s.max"] = seq.res.Layers["sweep.cell_s.max"]
	if workers > 1 && par.res.WallNs > 0 {
		layers["sweep.parallel_eff"] = seq.res.Layers["sweep.cell_s.sum"] / (float64(workers) * float64(par.res.WallNs) / 1e9)
	}
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
