// Package simnet provides a deterministic discrete-event simulator with
// cooperative, goroutine-backed processes.
//
// The simulator owns a virtual clock. Exactly one goroutine — either the
// scheduler or a single simulated process — runs at any instant, so simulated
// code needs no locking and every run with the same seed is bit-identical.
// Processes advance the clock only through blocking primitives (Sleep,
// Compute, Park*); everything else executes in zero virtual time.
//
// This package is the substrate for the VIA device models: NIC and wire
// behaviour is expressed as events, while MPI ranks are processes. Every
// paper figure funnels through Sim.Run, so the scheduler hot path (event
// admission, heap maintenance, dispatch, park) is kept allocation-free in
// steady state; the viampi-vet hotalloc rule enforces it.
package simnet

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"viampi/internal/obs"
)

// Time is an absolute virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely from
// time.Duration for readability at call sites.
type Duration int64

// Handy duration units in virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// D converts a time.Duration into a virtual Duration.
func D(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Std converts a virtual Duration back into a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros reports the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

func (d Duration) String() string { return time.Duration(d).String() }

// Seconds reports the timestamp as floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports the timestamp as floating-point microseconds since start.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Add offsets a timestamp by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// evKind discriminates the scheduler's typed events. The common cases —
// timer wakes from Sleep/Compute/ParkTimeout/Wake and process starts — carry
// their parameters in the event value itself and are dispatched in a switch,
// so the hot path never allocates a closure. Only general At/After callbacks
// (device models) pay for a func value.
type evKind uint8

const (
	evFunc         evKind = iota // run fn (general At/After callback)
	evTimerWake                  // wake proc if still parked at parkSeq
	evTimerTimeout               // as evTimerWake, but reports a timeout
	evProcStart                  // first dispatch of proc (emits EvProcStart)
)

// event is a scheduled occurrence. Events with equal timestamps fire in
// scheduling order (seq), which is what makes runs deterministic. Events are
// plain values: the queues below hold []event, never *event, so scheduling
// does not allocate per event.
type event struct {
	at      Time
	seq     uint64
	parkSeq uint64 // evTimerWake/evTimerTimeout: park generation to match
	proc    *Proc  // evTimerWake/evTimerTimeout/evProcStart
	fn      func() // evFunc
	kind    evKind
}

// before reports whether e fires before f: earlier timestamp, or equal
// timestamp and earlier scheduling order. seq values are unique, so this is
// a strict total order.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// eventRing is a FIFO of events scheduled at the current instant. It is the
// same-instant fast path: a wake or zero-delay callback admitted while the
// scheduler is already at its timestamp never touches the heap, and the
// ring's buffer is reused forever, so steady-state pushes do not allocate.
// The buffer length is always a power of two (see grow).
type eventRing struct {
	buf  []event
	head int
	n    int
}

func (r *eventRing) push(ev event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *eventRing) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{} // release fn/proc for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// grow doubles the ring (cold path: runs O(log n) times per simulation).
func (r *eventRing) grow() {
	nb := make([]event, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// Sim is a single-threaded discrete-event simulation.
// Create one with New, add processes with Spawn, then call Run.
//
// The event loop is not pinned to a scheduler goroutine: it migrates onto
// whichever goroutine currently has control (direct handoff). When a process
// parks, its own goroutine keeps popping and executing events; if the next
// wake is its own it simply returns from park with no synchronization at
// all, and a switch to a different process costs a single buffered channel
// send. Exactly one goroutine runs at any instant either way.
type Sim struct {
	now      Time
	seq      uint64
	heap     []event   // 4-ary min-heap on (at, seq): future events
	ready    eventRing // FIFO of events at the current instant
	procs    []*Proc
	done     chan struct{} // signals Run when the loop terminates off-goroutine
	runErr   error         // Run's result, set where termination is detected
	running  bool
	live     int // processes spawned and not yet finished
	failure  error
	deadline Time // 0 means none
	rng      *rand.Rand
	obsBus   *obs.Bus

	// EventCount is the total number of events dispatched so far.
	EventCount uint64
}

// New creates an empty simulation whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{
		done: make(chan struct{}, 1),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. It must only be
// used from simulation context (process bodies or event callbacks).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetObs attaches the observability bus every layer emits into. A nil bus
// (the default) disables observability at zero cost.
func (s *Sim) SetObs(b *obs.Bus) { s.obsBus = b }

// Obs returns the attached observability bus, or nil when disabled. Callers
// emit with s.Obs().Emit(...) — Emit on a nil bus is a no-op.
func (s *Sim) Obs() *obs.Bus { return s.obsBus }

// SetDeadline aborts Run with an error if virtual time would pass t: the
// deadline fires before executing any event scheduled after t, and that
// event is left unconsumed. An event at exactly t still runs. A zero t
// removes the deadline.
func (s *Sim) SetDeadline(t Time) { s.deadline = t }

// schedule admits an event. Events at or before the current instant while
// the simulation is running go to the ready FIFO (they fire this instant, in
// seq order, without re-heapifying); future events go to the heap. Ordering
// stays total because every event already in the heap at the current
// timestamp was admitted earlier and so carries a smaller seq than anything
// the ready ring holds.
func (s *Sim) schedule(ev event) {
	if ev.at <= s.now {
		ev.at = s.now // scheduling in the past is clamped to keep time monotonic
		if s.running {
			s.ready.push(ev)
			return
		}
	}
	s.heapPush(ev)
}

// heapPush inserts ev into the 4-ary min-heap. The slice is reused across
// pushes, so steady-state inserts do not allocate (growth is amortized).
func (s *Sim) heapPush(ev event) {
	h := append(s.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if h[parent].before(&ev) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	s.heap = h
}

// heapPop removes and returns the minimum event.
func (s *Sim) heapPop() event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn/proc for GC
	h = h[:n]
	s.heap = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error in the caller; it is clamped to now to keep time monotonic.
func (s *Sim) At(t Time, fn func()) {
	s.seq++
	s.schedule(event{at: t, seq: s.seq, kind: evFunc, fn: fn})
}

// After schedules fn to run d from now.
func (s *Sim) After(d Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Failf records a fatal simulation error; Run stops and returns it.
func (s *Sim) Failf(format string, args ...interface{}) {
	if s.failure == nil {
		s.failure = fmt.Errorf(format, args...)
	}
}

// Proc is a simulated process: a goroutine that runs only when the scheduler
// hands it control, and returns control whenever it blocks in virtual time.
type Proc struct {
	sim    *Sim
	id     int
	name   string
	resume chan wake

	parked   bool
	parkSeq  uint64 // increments every park; stale wake events are ignored
	finished bool

	busy Duration // total time charged via Compute
}

type wake struct{ timedOut bool }

// ID returns the process's index in spawn order.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// BusyTime returns total virtual time this process spent in Compute.
func (p *Proc) BusyTime() Duration { return p.busy }

// Spawn creates a process that will begin executing fn at time start.
// It may be called before Run or from inside the simulation.
func (s *Sim) Spawn(name string, start Time, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		id:     len(s.procs),
		name:   name,
		resume: make(chan wake, 1),
	}
	s.procs = append(s.procs, p)
	s.live++
	go func() {
		w := <-p.resume // wait for first dispatch
		_ = w
		defer func() {
			if r := recover(); r != nil {
				s.Failf("process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
			s.obsBus.Emit(obs.Event{T: int64(s.now), Kind: obs.EvProcEnd,
				Rank: int32(p.id), Peer: -1, Name: p.name})
			p.finished = true
			s.live--
			// This goroutine holds the token; keep the simulation moving
			// until it hands off or terminates, then exit.
			if s.loop(nil, nil) == exitDone {
				s.done <- struct{}{}
			}
		}()
		fn(p)
	}()
	s.seq++
	s.schedule(event{at: start, seq: s.seq, kind: evProcStart, proc: p})
	return p
}

// park blocks the calling process until a wake event resumes it. It must be
// called from process context. The parking goroutine keeps running the event
// loop itself: if the next wake is its own it returns without any channel
// operation (the same-goroutine fast path), otherwise it hands the token to
// the woken process and blocks until its own turn comes back.
func (p *Proc) park() wake {
	s := p.sim
	p.parked = true
	p.parkSeq++
	var w wake
	switch s.loop(p, &w) {
	case exitSelfWake:
		// w set by loop; the token never left this goroutine.
	case exitHandoff:
		w = <-p.resume
	case exitDone:
		s.done <- struct{}{}
		w = <-p.resume // Run returned; resumes only if a later Run wakes us
	}
	return w
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerWake,
		proc: p, parkSeq: p.parkSeq + 1})
	p.park()
}

// Compute charges d of virtual time as computation (CPU busy).
func (p *Proc) Compute(d Duration) {
	if d <= 0 {
		return
	}
	s := p.sim
	start := s.now
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerWake,
		proc: p, parkSeq: p.parkSeq + 1})
	p.park()
	p.busy += s.now.Sub(start)
}

// Park suspends the process until another party calls Wake on it.
func (p *Proc) Park() { p.park() }

// ParkTimeout suspends the process until Wake or until d elapses.
// It reports true if the process was woken, false on timeout.
func (p *Proc) ParkTimeout(d Duration) bool {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerTimeout,
		proc: p, parkSeq: p.parkSeq + 1})
	w := p.park()
	return !w.timedOut
}

// Wake schedules p to resume at the current virtual time (plus optional
// delay). It is safe to call from any simulation context; a Wake aimed at a
// process that is not parked, or that has re-parked since, is dropped.
func (p *Proc) Wake() { p.WakeAfter(0) }

// WakeAfter schedules a wake for p after d of virtual time.
func (p *Proc) WakeAfter(d Duration) {
	s := p.sim
	seq := p.parkSeq
	if !p.parked {
		seq++ // wake the *next* park if it happens before the event fires
	}
	s.seq++
	s.schedule(event{at: s.now.Add(d), seq: s.seq, kind: evTimerWake,
		proc: p, parkSeq: seq})
}

// Yield gives other events scheduled at the current instant a chance to run
// before the process continues. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// loopExit says why the event loop returned on this goroutine.
type loopExit uint8

const (
	exitSelfWake loopExit = iota // the caller's own wake fired; *w is set
	exitHandoff                  // the token moved to another process
	exitDone                     // the run terminated; s.runErr is set
)

// loop pops and executes events on the calling goroutine until control must
// move elsewhere. self is the process that just parked on this goroutine
// (nil when called from Run or a finished process's goroutine); when self's
// own wake comes up the loop stores the wake in *w and returns exitSelfWake
// without touching a channel. Timer wakes and process starts are dispatched
// from the event value itself; only evFunc calls through a func value.
func (s *Sim) loop(self *Proc, w *wake) loopExit {
	for s.failure == nil {
		var ev event
		switch {
		case len(s.heap) > 0 && s.heap[0].at <= s.now:
			// Due events left over from before this instant's arrivals; they
			// carry smaller seqs than anything in the ready ring.
			ev = s.heapPop()
		case s.ready.n > 0:
			ev = s.ready.pop()
		case len(s.heap) > 0:
			next := s.heap[0].at
			if s.deadline != 0 && next > s.deadline {
				s.runErr = s.deadlineError(next)
				return exitDone
			}
			s.now = next
			ev = s.heapPop()
		default:
			s.runErr = s.stopError()
			return exitDone
		}
		s.EventCount++
		switch ev.kind {
		case evFunc:
			ev.fn()
		case evTimerWake, evTimerTimeout:
			p := ev.proc
			if p.parked && p.parkSeq == ev.parkSeq {
				p.parked = false
				wk := wake{timedOut: ev.kind == evTimerTimeout}
				if p == self {
					*w = wk
					return exitSelfWake
				}
				p.resume <- wk // buffered: p is blocked receiving
				return exitHandoff
			}
		case evProcStart:
			p := ev.proc
			s.obsBus.Emit(obs.Event{T: int64(s.now), Kind: obs.EvProcStart,
				Rank: int32(p.id), Peer: -1, Name: p.name})
			p.parked = false
			p.resume <- wake{}
			return exitHandoff
		}
	}
	s.runErr = s.failure
	return exitDone
}

// deadlineError reports the deadline trip (cold path, off the event loop).
func (s *Sim) deadlineError(next Time) error {
	return fmt.Errorf("simnet: deadline %v exceeded: next event at t=%v", s.deadline, next)
}

// stopError classifies an empty event queue: clean completion, a recorded
// failure, or a deadlock with live processes (cold path, off the event loop).
func (s *Sim) stopError() error {
	if s.failure != nil {
		return s.failure
	}
	if s.live > 0 {
		var stuck []string
		for _, p := range s.procs {
			if !p.finished {
				stuck = append(stuck, p.name)
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("simnet: deadlock at t=%v: %d process(es) blocked with no pending events: %v",
			s.now, len(stuck), stuck)
	}
	return nil
}

// Run dispatches events until the queue is empty or a failure occurs.
// It returns an error if any process panicked, the deadline passed, or if
// processes remain blocked with no pending events (deadlock).
//
// Deadline semantics: the deadline error fires before executing any event
// scheduled after the deadline, and that event is left unconsumed; an event
// at exactly the deadline still runs.
func (s *Sim) Run() error {
	if s.running {
		return fmt.Errorf("simnet: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	s.runErr = nil

	if s.loop(nil, nil) == exitHandoff {
		// The token is out among the processes; whichever goroutine detects
		// termination signals done after setting runErr.
		<-s.done
	}
	return s.runErr
}

// Procs returns all processes ever spawned, in spawn order.
func (s *Sim) Procs() []*Proc { return s.procs }
