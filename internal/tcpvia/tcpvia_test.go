package tcpvia

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

const tmo = 5 * time.Second

func newNode(t *testing.T) *Node {
	t.Helper()
	n, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// connectNodes wires a VI pair between two nodes: a dials, b accepts.
func connectNodes(t *testing.T, a, b *Node, disc uint64) (*VI, *VI) {
	t.Helper()
	viA, err := a.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	viB, err := b.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		req, err := b.WaitRequest(disc, tmo)
		if err != nil {
			done <- err
			return
		}
		done <- b.Accept(req, viB)
	}()
	if err := a.ConnectPeer(viA, b.Addr(), disc, tmo); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return viA, viB
}

func TestConnectAndTransfer(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 77)
	if viA.State() != Connected || viB.State() != Connected {
		t.Fatalf("states: %v %v", viA.State(), viB.State())
	}
	if err := viB.PostRecv(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st, err := viA.PostSend([]byte("over tcp"))
	if err != nil || st != Sent {
		t.Fatalf("send: %v %v", st, err)
	}
	buf, ln, err := viB.RecvWait(tmo)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:ln]) != "over tcp" {
		t.Fatalf("got %q", buf[:ln])
	}
}

func TestSendOnUnconnectedDiscarded(t *testing.T) {
	a := newNode(t)
	vi, err := a.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	st, err := vi.PostSend([]byte("lost"))
	if err != nil || st != Discarded {
		t.Fatalf("want silent discard, got %v %v", st, err)
	}
	if a.Stats().DiscardedSends != 1 {
		t.Fatalf("DiscardedSends = %d", a.Stats().DiscardedSends)
	}
}

func TestRecvWithoutDescriptorBreaksConnection(t *testing.T) {
	// VIA-strict mode: no descriptor means a broken connection.
	a, err := Listen(Config{StrictDescriptors: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Listen(Config{StrictDescriptors: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	viA, viB := connectNodes(t, a, b, 1)
	if _, err := viA.PostSend([]byte("boom")); err != nil {
		t.Fatal(err)
	}
	// viB has no posted receive: its reader must error the VI.
	deadline := time.Now().Add(tmo)
	for viB.State() != Errored && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if viB.State() != Errored {
		t.Fatalf("state = %v, want errored", viB.State())
	}
	if _, _, err := viB.RecvWait(100 * time.Millisecond); err != ErrNoDescriptor {
		t.Fatalf("RecvWait err = %v", err)
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 2)
	const n = 100
	for i := 0; i < n; i++ {
		if err := viB.PostRecv(make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := viA.PostSend([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		buf, ln, err := viB.RecvWait(tmo)
		if err != nil || ln != 2 {
			t.Fatal(err)
		}
		if got := int(buf[0]) | int(buf[1])<<8; got != i {
			t.Fatalf("message %d carried %d", i, got)
		}
	}
}

func TestCrossingDialsResolveToOneConnection(t *testing.T) {
	for round := 0; round < 5; round++ {
		a, b := newNode(t), newNode(t)
		viA, err := a.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		viB, err := b.CreateVi()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = a.ConnectPeer(viA, b.Addr(), 9, tmo) }()
		go func() { defer wg.Done(); errs[1] = b.ConnectPeer(viB, a.Addr(), 9, tmo) }()
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("round %d: %v %v", round, errs[0], errs[1])
		}
		if viA.State() != Connected || viB.State() != Connected {
			t.Fatalf("round %d states: %v %v", round, viA.State(), viB.State())
		}
		// Data flows across whichever connection won.
		if err := viB.PostRecv(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := viA.PostSend([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := viB.RecvWait(tmo); err != nil {
			t.Fatalf("round %d recv: %v", round, err)
		}
		a.Close()
		b.Close()
	}
}

// TestCrossingDialThroughRequestQueue forces, step by step, the crossing
// the concurrent tests only hit under load: the peer's HELLO is queued
// before this node dials, and the queued request is answered while this
// node's own dial is outstanding. The peer (a scripted socket holding the
// larger address) follows the tie-break every node applies — the
// connection dialed by the smaller address survives — so this node must
// answer its request busy and keep its own dial. Adopting the request
// instead leaves the two sides on different connections, each closing the
// one the other kept, and the VI ends Errored.
func TestCrossingDialThroughRequestQueue(t *testing.T) {
	// Take two ports: the node gets the smaller address, the peer the larger.
	ls := make([]net.Listener, 2)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ls[i] = l
	}
	if ls[1].Addr().String() < ls[0].Addr().String() {
		ls[0], ls[1] = ls[1], ls[0]
	}
	ls[0].Close()
	n, err := Listen(Config{ListenAddr: ls[0].Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ln, peer := ls[1], ls[1].Addr().String()
	const disc, peerVi = 42, 7
	vi, err := n.CreateVi()
	if err != nil {
		t.Fatal(err)
	}

	// 1. The peer dials first; the node is not dialing, so the HELLO queues.
	in, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	hello := make([]byte, 12+len(peer))
	binary.LittleEndian.PutUint64(hello, disc)
	binary.LittleEndian.PutUint32(hello[8:], peerVi)
	copy(hello[12:], peer)
	if err := writeFrame(in, kHello, hello); err != nil {
		t.Fatal(err)
	}
	req, err := n.WaitRequest(disc, tmo)
	if err != nil {
		t.Fatal(err)
	}

	// 2. The node dials before the request is answered: the crossing.
	dialed := make(chan error, 1)
	go func() { dialed <- n.ConnectPeer(vi, peer, disc, tmo) }()
	out, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if kind, _, err := readFrame(out, maxFrame); err != nil || kind != kHello {
		t.Fatalf("node's dial sent frame %d (%v), want HELLO", kind, err)
	}

	// 3. The queued request resolves while the node's dial is outstanding.
	if err := n.Accept(req, vi); !errors.Is(err, ErrCrossing) {
		t.Fatalf("Accept during an outstanding winning dial = %v, want ErrCrossing", err)
	}
	if kind, _, err := readFrame(in, maxFrame); err != nil || kind != kBusy {
		t.Fatalf("queued request answered with frame %d (%v), want busy: the node must keep its own dial", kind, err)
	}

	// 4. The peer adopts the node's dial; data rides that connection.
	if err := writeFrame(out, kAccept, u32(peerVi)); err != nil {
		t.Fatal(err)
	}
	if err := <-dialed; err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := vi.PostSend([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if kind, payload, err := readFrame(out, maxFrame); err != nil || kind != kData || string(payload) != "kept" {
		t.Fatalf("data frame %d %q (%v), want the payload on the surviving connection", kind, payload, err)
	}
	if st := vi.State(); st != Connected {
		t.Fatalf("VI state %v after the crossing, want connected", st)
	}
}

func TestRejectedRequest(t *testing.T) {
	a, b := newNode(t), newNode(t)
	vi, err := a.CreateVi()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		req, err := b.WaitRequest(5, tmo)
		if err == nil {
			req.Reject()
		}
	}()
	if err := a.ConnectPeer(vi, b.Addr(), 5, tmo); err != ErrRejected {
		t.Fatalf("err = %v, want rejected", err)
	}
	if vi.State() != Idle {
		t.Fatalf("state after reject = %v", vi.State())
	}
}

func TestViLimit(t *testing.T) {
	n, err := Listen(Config{MaxVIs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 2; i++ {
		if _, err := n.CreateVi(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.CreateVi(); err == nil {
		t.Fatal("expected VI limit error")
	}
}

func TestCloseNotifiesPeer(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 3)
	viA.Close()
	deadline := time.Now().Add(tmo)
	for viB.State() != Closed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if viB.State() != Closed {
		t.Fatalf("peer state = %v, want closed", viB.State())
	}
}

func TestLargeMessage(t *testing.T) {
	a, b := newNode(t), newNode(t)
	viA, viB := connectNodes(t, a, b, 4)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := viB.PostRecv(make([]byte, len(big))); err != nil {
		t.Fatal(err)
	}
	if _, err := viA.PostSend(big); err != nil {
		t.Fatal(err)
	}
	buf, ln, err := viB.RecvWait(tmo)
	if err != nil || ln != len(big) {
		t.Fatalf("recv: %d %v", ln, err)
	}
	if !bytes.Equal(buf[:ln], big) {
		t.Fatal("large message corrupted")
	}
}

// --------------------------------------------------------------------------
// Manager tests: the paper's mechanisms on a live network.

// group starts n nodes with managers under policy.
func group(t *testing.T, n int, policy string) []*Manager {
	t.Helper()
	nodes := make([]*Node, n)
	peers := make([]string, n)
	for i := range nodes {
		nodes[i] = newNode(t)
		peers[i] = nodes[i].Addr()
	}
	mgrs := make([]*Manager, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewManager(ManagerConfig{
				Node: nodes[i], Rank: i, Peers: peers, Policy: policy,
				Timeout: tmo,
			})
			mgrs[i], errs[i] = m, err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("manager %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, m := range mgrs {
			m.Close()
		}
	})
	return mgrs
}

func TestStaticManagerFullMesh(t *testing.T) {
	const n = 4
	mgrs := group(t, n, "static")
	for i, m := range mgrs {
		if got := m.Connections(); got != n-1 {
			t.Errorf("rank %d connections = %d, want %d", i, got, n-1)
		}
		if vis := m.node.Stats().VisCreated; vis != n-1 {
			t.Errorf("rank %d VIs = %d, want %d", i, vis, n-1)
		}
	}
}

// TestOnDemandManagerRing is the paper's core claim on real sockets: a ring
// under on-demand creates only the two connections each rank uses.
func TestOnDemandManagerRing(t *testing.T) {
	const n = 6
	mgrs := group(t, n, "ondemand")
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, m := range mgrs {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Send((i+1)%n, []byte(fmt.Sprintf("from-%d", i))); err != nil {
				errs[i] = err
				return
			}
			got, err := m.Recv((i+n-1)%n, tmo)
			if err != nil {
				errs[i] = err
				return
			}
			want := fmt.Sprintf("from-%d", (i+n-1)%n)
			if string(got) != want {
				errs[i] = fmt.Errorf("rank %d got %q want %q", i, got, want)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range mgrs {
		if got := m.node.Stats().VisCreated; got > 2 {
			t.Errorf("rank %d created %d VIs, want <= 2 under on-demand", i, got)
		}
		if got := m.Connections(); got != 2 {
			t.Errorf("rank %d connections = %d, want 2", i, got)
		}
	}
}

// TestOnDemandFifoPreservesOrder: sends issued before the handshake finishes
// must arrive in order (the §3.4 FIFO on a real network).
func TestOnDemandFifoPreservesOrder(t *testing.T) {
	mgrs := group(t, 2, "ondemand")
	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			mgrs[0].Send(1, []byte{byte(i)}) // first send triggers the dial
		}
	}()
	for i := 0; i < n; i++ {
		got, err := mgrs[1].Recv(0, tmo)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("message %d carried %v", i, got)
		}
	}
}

// TestManagerBidirectionalStress exchanges messages both ways on every pair
// concurrently under on-demand.
func TestManagerBidirectionalStress(t *testing.T) {
	const n = 4
	const msgs = 40
	mgrs := group(t, n, "ondemand")
	var wg sync.WaitGroup
	errCh := make(chan error, n*n*2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			i, j := i, j
			wg.Add(2)
			go func() {
				defer wg.Done()
				for k := 0; k < msgs; k++ {
					if err := mgrs[i].Send(j, []byte{byte(i), byte(j), byte(k)}); err != nil {
						errCh <- err
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for k := 0; k < msgs; k++ {
					got, err := mgrs[j].Recv(i, tmo)
					if err != nil {
						errCh <- fmt.Errorf("recv %d<-%d: %w", j, i, err)
						return
					}
					if len(got) != 3 || got[0] != byte(i) || got[2] != byte(k) {
						errCh <- fmt.Errorf("bad payload %v", got)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Full communication graph: everyone connected to everyone.
	for i, m := range mgrs {
		if got := m.Connections(); got != n-1 {
			t.Errorf("rank %d connections = %d", i, got)
		}
	}
}

func TestManagerConfigValidation(t *testing.T) {
	node := newNode(t)
	if _, err := NewManager(ManagerConfig{Node: node, Rank: 5, Peers: []string{node.Addr()}}); err == nil {
		t.Error("bad rank accepted")
	}
	if _, err := NewManager(ManagerConfig{Node: node, Rank: 0, Peers: []string{node.Addr()}, Policy: "psychic"}); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestNoGoroutineLeaks: after closing every node, all readers, acceptors
// and adopt loops must have exited.
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		a, err := Listen(Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Listen(Config{})
		if err != nil {
			t.Fatal(err)
		}
		viA, viB := connectNodes(t, a, b, 11)
		if err := viB.PostRecv(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := viA.PostSend([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := viB.RecvWait(tmo); err != nil {
			t.Fatal(err)
		}
		a.Close()
		b.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", base, got, buf[:n])
	}
}

// peerClosed reads from conn until the peer closes it and reports whether
// it did so within wait.
func peerClosed(conn net.Conn, wait time.Duration) bool {
	conn.SetReadDeadline(time.Now().Add(wait))
	_, err := conn.Read(make([]byte, 1))
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// TestSilentInboundClosed: a peer that connects and never sends its HELLO
// is dropped once helloTimeout passes, and Node.Close does not wait on it.
func TestSilentInboundClosed(t *testing.T) {
	defer func(d time.Duration) { helloTimeout = d }(helloTimeout)
	helloTimeout = 100 * time.Millisecond
	n, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !peerClosed(conn, 2*time.Second) {
		t.Fatal("silent dialer still connected after 2s")
	}
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Node.Close blocked on a silent inbound connection")
	}
}

// TestOversizedHelloRejected: a HELLO header claiming 64 MB is refused
// before any payload buffer is allocated, and the connection is dropped.
func TestOversizedHelloRejected(t *testing.T) {
	n := newNode(t)
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hdr := []byte{kHello, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[1:], 64<<20)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	closed := peerClosed(conn, 2*time.Second)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("oversized HELLO header cost %d bytes of allocation, want < 1 MB", d)
	}
	if !closed {
		t.Fatal("connection with an oversized HELLO still open after 2s")
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []ViState{Idle, Connecting, Connected, Errored, Closed, ViState(99)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
}
