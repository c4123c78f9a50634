package via

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"viampi/internal/simnet"
)

// A closed VI gives its port slot back: after thousands of create/close
// cycles the port still admits exactly MaxVIsPerPort live VIs, and refuses
// the next one.
func TestClosedVIsFreePortSlots(t *testing.T) {
	cost := ClanCost()
	cost.MaxVIsPerPort = 64
	e := newEnv(2, 1, cost)
	e.pair(t,
		func(p *simnet.Proc, port *Port) {
			for i := 0; i < 4096; i++ {
				vi, err := port.CreateVi()
				if err != nil {
					t.Errorf("create/close cycle %d: %v", i, err)
					return
				}
				vi.Close()
			}
			for i := 0; i < cost.MaxVIsPerPort; i++ {
				if _, err := port.CreateVi(); err != nil {
					t.Errorf("live VI %d of %d refused: %v", i+1, cost.MaxVIsPerPort, err)
					return
				}
			}
			if _, err := port.CreateVi(); !errors.Is(err, ErrTooManyVIs) {
				t.Errorf("VI %d: err = %v, want ErrTooManyVIs", cost.MaxVIsPerPort+1, err)
			}
			if got := port.Stats().VisCreated; got != 4096+cost.MaxVIsPerPort {
				t.Errorf("VisCreated = %d, want %d", got, 4096+cost.MaxVIsPerPort)
			}
		},
		func(p *simnet.Proc, port *Port) {})
}

// VisUsed is a counter now, not a scan: over a mix of idle, send-only,
// receive-only and two-way VIs, some closed after use and some before, it
// must equal the count the traffic pattern implies on both sides.
func TestVisUsedMatchesPattern(t *testing.T) {
	// Per VI pair: does a send to b, does b send to a, close a's VI after.
	pattern := []struct{ aToB, bToA, closeA bool }{
		{false, false, false}, {true, false, false}, {false, true, false}, {true, true, false},
		{false, false, true}, {true, false, true}, {false, true, true}, {true, true, true},
		{true, false, true}, {false, true, false},
	}
	var want int
	for _, pt := range pattern {
		if pt.aToB || pt.bToA {
			want++
		}
	}
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	ports := make([]*Port, 2)
	side := func(me int, p *simnet.Proc, port *Port) {
		addrs[me], ports[me] = port.Addr(), port
		p.Sleep(10 * simnet.Microsecond)
		// An extra VI that never connects must not count.
		if _, err := port.CreateVi(); err != nil {
			t.Error(err)
			return
		}
		for i, pt := range pattern {
			vi, err := port.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			if err := vi.PostRecv(&Descriptor{Buf: make([]byte, 8)}); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerRequest(vi, addrs[1-me], uint64(100+i)); err != nil {
				t.Error(err)
				return
			}
			if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
				t.Error(err)
				return
			}
			send, recv := pt.aToB, pt.bToA
			if me == 1 {
				send, recv = recv, send
			}
			if send {
				if err := vi.PostSend(&Descriptor{Buf: []byte{byte(i)}, Len: 1}); err != nil {
					t.Error(err)
					return
				}
				if _, err := vi.SendWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
			}
			if recv {
				if _, err := vi.RecvWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
			}
			// Both sides are done with the pair before either closes, so a
			// close never races the data.
			p.Sleep(50 * simnet.Microsecond)
			if me == 0 && pt.closeA {
				vi.Close()
			}
			p.Sleep(50 * simnet.Microsecond)
		}
	}
	e.pair(t,
		func(p *simnet.Proc, port *Port) { side(0, p, port) },
		func(p *simnet.Proc, port *Port) { side(1, p, port) })
	for me, port := range ports {
		if got := port.VisUsed(); got != want {
			t.Errorf("side %d: VisUsed = %d, want %d", me, got, want)
		}
	}
}

// A closed VI, and the descriptors posted on it, must not stay reachable
// from its port or from a completion queue that has reaped them: the port
// forgets the VI on Close, and popped CQ slots are zeroed.
//
// A posted descriptor and its VI point at each other, and a finalizer on an
// object in a cycle never runs, so the finalizers sit on the descriptors'
// receive buffers instead, which point at nothing. The VI still holds its
// two unreaped descriptors after Close, so while the VI is reachable their
// buffers are too: all four buffers collected means the VI was.
func TestClosedVICollectable(t *testing.T) {
	const posted, reaped = 4, 2
	e := newEnv(2, 1, ClanCost())
	addrs := make([]Addr, 2)
	var port *Port
	var cq *CQ
	freed := make(chan int, posted)
	connect := func(port *Port, vi *VI, peer Addr) {
		if err := port.ConnectPeerRequest(vi, peer, 9); err != nil {
			t.Error(err)
			return
		}
		if err := port.ConnectPeerWait(vi, WaitPoll, -1); err != nil {
			t.Error(err)
		}
	}
	e.pair(t,
		func(p *simnet.Proc, pt *Port) {
			addrs[0], port = pt.Addr(), pt
			cq = NewCQ(pt)
			p.Sleep(10 * simnet.Microsecond)
			// Everything that holds the VI strongly lives in this call,
			// so nothing on this goroutine's stack can pin it after.
			func() {
				vi, err := pt.CreateViCQ(cq)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < posted; i++ {
					buf := new([64]byte)
					runtime.SetFinalizer(buf, func(*[64]byte) { freed <- i })
					if err := vi.PostRecv(&Descriptor{Buf: buf[:]}); err != nil {
						t.Error(err)
						return
					}
				}
				connect(pt, vi, addrs[1])
				// Reap two completions through the CQ, then close with
				// two descriptors still posted.
				for i := 0; i < reaped; i++ {
					if _, _, err := cq.Wait(WaitPoll, -1); err != nil {
						t.Error(err)
						return
					}
				}
				vi.Close()
				if len(vi.recvQ) != posted-reaped {
					t.Errorf("closed VI holds %d descriptors, want %d", len(vi.recvQ), posted-reaped)
				}
			}()
		},
		func(p *simnet.Proc, pt *Port) {
			addrs[1] = pt.Addr()
			p.Sleep(10 * simnet.Microsecond)
			vi, err := pt.CreateVi()
			if err != nil {
				t.Error(err)
				return
			}
			connect(pt, vi, addrs[0])
			for i := 0; i < reaped; i++ {
				if err := vi.PostSend(&Descriptor{Buf: []byte{byte(i)}, Len: 1}); err != nil {
					t.Error(err)
					return
				}
				if _, err := vi.SendWait(WaitPoll, -1); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(simnet.Millisecond)
		})
	// Finalizers run on their own goroutine after the collection that finds
	// the buffers dead; give them a bounded number of cycles.
	got := make([]bool, posted)
	n := 0
	for round := 0; round < 50 && n < posted; round++ {
		runtime.GC()
		select {
		case i := <-freed:
			got[i] = true
			n++
		case <-time.After(20 * time.Millisecond):
		}
	}
	for i, ok := range got {
		if !ok {
			t.Errorf("descriptor %d of the closed VI still reachable", i)
		}
	}
	runtime.KeepAlive(port)
	runtime.KeepAlive(cq)
}
