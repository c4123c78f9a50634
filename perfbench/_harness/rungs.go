package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"viampi/internal/bench"
	"viampi/internal/fabric"
	"viampi/internal/simnet"
	"viampi/internal/via"
)

// The ladder: one fixed workload per layer, each timed on the host clock
// with its heap allocations counted. A layer's self cost is its rung minus
// the rung below. The simnet, core and mpi rungs reuse the bench package's
// helpers; the fabric and via rungs call those layers directly, as
// cmd/vibench does. Event counts and virtual times of the shared helpers
// already live in BENCH_simcore.json and BENCH_micro.json, so only host
// cost is reported here.

// measure runs fn once and returns its host duration and heap allocations.
func measure(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// repeatPer runs fn reps times and returns the medians of host ns and
// allocations per unit of work (fn reports its units).
func repeatPer(reps int, fn func() (units float64, err error)) (ns, allocs float64, err error) {
	var nss, as []float64
	for i := 0; i < reps; i++ {
		var units float64
		d, m, err := measure(func() (e error) { units, e = fn(); return })
		if err != nil {
			return 0, 0, err
		}
		nss = append(nss, float64(d.Nanoseconds())/units)
		as = append(as, float64(m)/units)
	}
	return median(nss), median(as), nil
}

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

func runRungs() (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	set := func(nsKey, allocKey string, ns, allocs float64) {
		m[nsKey] = ns
		if allocKey != "" {
			m[allocKey] = allocs
		}
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"simnet", func() error {
			ns, a, err := repeatPer(3, simnetRung)
			set("simnet.rung.ns_per_event", "simnet.rung.allocs_per_event", ns, a)
			return err
		}},
		{"fabric", func() error {
			ns, a, err := repeatPer(3, func() (float64, error) { return fabricRung(100_000) })
			set("fabric.rung.ns_per_frame", "fabric.rung.allocs_per_frame", ns, a)
			return err
		}},
		{"via-pingpong", func() error {
			ns, a, err := repeatPer(3, func() (float64, error) { return viaPingpong(20_000) })
			set("via.rung.ns_per_desc", "via.rung.allocs_per_desc", ns, a)
			return err
		}},
		{"via-create", func() error {
			ns, err := medianOf(5, func() (float64, error) { return viaCreate(0) })
			set("via.rung.create_vi_ns.live256", "", ns, 0)
			if err == nil {
				ns, err = medianOf(5, func() (float64, error) { return viaCreate(4096) })
				set("via.rung.create_vi_ns.closed4k", "", ns, 0)
			}
			return err
		}},
		{"via-connect", func() error {
			ns, _, err := repeatPer(3, func() (float64, error) { return viaConnect(256) })
			set("via.rung.connect_ns", "", ns, 0)
			return err
		}},
		{"core", func() error {
			ns, _, err := repeatPer(1, func() (float64, error) {
				_, err := bench.InitBoot(bench.StaticPolling, 256)
				return 1, err
			})
			set("core.rung.static_boot_ms", "", ns/1e6, 0)
			if err == nil {
				ns, _, err = repeatPer(5, func() (float64, error) {
					_, err := bench.InitBoot(bench.OnDemand, 1024)
					return 1, err
				})
				set("core.rung.ondemand_boot_ms", "", ns/1e6, 0)
			}
			return err
		}},
		{"mpi", func() error {
			const iters = 5000
			ns, a, err := repeatPer(3, func() (float64, error) {
				_, err := bench.Pingpong("clan", bench.OnDemand, 8, iters, 0, 1)
				// Pingpong sends 4 warm-up and iters measured round trips,
				// then iters more: two messages per round trip.
				return 2 * (4 + 2*iters), err
			})
			set("mpi.rung.pingpong_ns_per_msg", "mpi.rung.allocs_per_msg", ns, a)
			return err
		}},
	}
	for _, s := range steps {
		if err = s.fn(); err != nil {
			return nil, fmt.Errorf("rung %s: %w", s.name, err)
		}
	}
	return m, nil
}

// simnetRung is the scheduler's timer-wake and park/wake handoff paths.
func simnetRung() (float64, error) {
	a, err := bench.SimCoreSleepCycle(8, 25_000)
	if err != nil {
		return 0, err
	}
	b, err := bench.SimCoreParkWake(100_000)
	return float64(a.Events + b.Events), err
}

// fabricRung sends frames through Cluster.Send between two attached
// endpoints on different cLAN nodes, with msg-stream's size mix, pacing each
// frame by its serialization time so no queue builds.
func fabricRung(frames int) (float64, error) {
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, frames)
	for i := range sizes {
		sizes[i] = msgSize(rng)
	}
	cfg := via.ClanFabric(2, 1)
	sim := simnet.New(1)
	cl := fabric.New(sim, cfg)
	delivered := 0
	src, err := cl.AttachNode(0, func(fabric.Frame) {})
	if err != nil {
		return 0, err
	}
	dst, err := cl.AttachNode(1, func(fabric.Frame) { delivered++ })
	if err != nil {
		return 0, err
	}
	sim.Spawn("sender", 0, func(p *simnet.Proc) {
		for _, n := range sizes {
			cl.Send(fabric.Frame{Src: src, Dst: dst, Size: n}, 0)
			p.Sleep(simnet.Duration(float64(n) / cfg.BandwidthBps * 1e9))
		}
	})
	if err := sim.Run(); err != nil {
		return 0, err
	}
	if delivered != frames {
		return 0, fmt.Errorf("fabric rung: %d of %d frames delivered", delivered, frames)
	}
	return float64(frames), nil
}

// viaPair runs body on two processes, each with an open cLAN port, once both
// ports exist.
func viaPair(body func(p *simnet.Proc, port *via.Port, peer via.Addr, side int) error) error {
	sim := simnet.New(1)
	net := via.NewNetwork(sim, via.ClanFabric(2, 1), via.ClanCost())
	addrs := make([]via.Addr, 2)
	ready := 0
	for i := 0; i < 2; i++ {
		i := i
		sim.Spawn(fmt.Sprint("p", i), 0, func(p *simnet.Proc) {
			port, err := net.Open(p)
			if err != nil {
				sim.Failf("open: %v", err)
				return
			}
			addrs[i] = port.Addr()
			ready++
			for ready < 2 {
				p.Sleep(simnet.Microsecond)
			}
			if err := body(p, port, addrs[1-i], i); err != nil {
				sim.Failf("via rung: %v", err)
			}
		})
	}
	return sim.Run()
}

func connectVI(port *via.Port, peer via.Addr, disc uint64, recvs int) (*via.VI, error) {
	vi, err := port.CreateVi()
	if err != nil {
		return nil, err
	}
	for i := 0; i < recvs; i++ {
		if err := vi.PostRecv(&via.Descriptor{Buf: make([]byte, 64)}); err != nil {
			return nil, err
		}
	}
	if err := port.ConnectPeerRequest(vi, peer, disc); err != nil {
		return nil, err
	}
	return vi, port.ConnectPeerWait(vi, via.WaitPoll, -1)
}

// viaPingpong bounces a 64-byte message over one connected VI pair, reposting
// each receive descriptor and reusing one send descriptor per side. One unit
// is one message: a send and a receive descriptor.
func viaPingpong(iters int) (float64, error) {
	err := viaPair(func(p *simnet.Proc, port *via.Port, peer via.Addr, side int) error {
		vi, err := connectVI(port, peer, 1, 4)
		if err != nil {
			return err
		}
		sd := &via.Descriptor{Buf: make([]byte, 64), Len: 64}
		for i := 0; i < iters; i++ {
			if side == 0 {
				if err := vi.PostSend(sd); err != nil {
					return err
				}
			}
			d, err := vi.RecvWait(via.WaitPoll, -1)
			if err != nil {
				return err
			}
			if err := vi.PostRecv(d); err != nil {
				return err
			}
			if side == 1 {
				if err := vi.PostSend(sd); err != nil {
					return err
				}
			}
			if _, err := vi.SendWait(via.WaitPoll, -1); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(2 * iters), err
}

// viaCreate returns the host ns per VI for creating VIs 257 through 768 on
// one cLAN port, after creating and closing `closed` VIs first: CreateViCQ's
// cost with only live VIs, and with a history of closed ones behind them.
func viaCreate(closed int) (float64, error) {
	const live, timed = 256, 512
	var t0 time.Time
	var d time.Duration
	sim := simnet.New(1)
	net := via.NewNetwork(sim, via.ClanFabric(1, 1), via.ClanCost())
	sim.Spawn("p", 0, func(p *simnet.Proc) {
		port, err := net.Open(p)
		if err != nil {
			sim.Failf("open: %v", err)
			return
		}
		for i := 0; i < closed+live+timed; i++ {
			if i == closed+live {
				t0 = time.Now()
			}
			vi, err := port.CreateVi()
			if err != nil {
				sim.Failf("create: %v", err)
				return
			}
			if i < closed {
				vi.Close()
			}
		}
		d = time.Since(t0)
	})
	if err := sim.Run(); err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / timed, nil
}

// viaConnect establishes n VI connections one after another between two
// ports, each side creating its VI and issuing a peer request.
func viaConnect(n int) (float64, error) {
	err := viaPair(func(p *simnet.Proc, port *via.Port, peer via.Addr, _ int) error {
		for i := 0; i < n; i++ {
			if _, err := connectVI(port, peer, uint64(i+1), 0); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(n), err
}
