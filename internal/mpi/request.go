package mpi

import "fmt"

// AnySource matches a message from any sender (MPI_ANY_SOURCE).
// AnyTag matches any tag (MPI_ANY_TAG).
const (
	AnySource = -1
	AnyTag    = -1
)

// SendMode selects the MPI point-to-point send mode.
type SendMode int

// The four MPI communication modes (§3.6 of the paper). Standard completes
// locally once the eager data is buffered (or, above the threshold, when the
// rendezvous finishes); Synchronous always completes only after the matching
// receive started (rendezvous); Ready requires a matching receive to be
// already posted; Buffered always completes locally.
const (
	ModeStandard SendMode = iota
	ModeSynchronous
	ModeReady
	ModeBuffered
)

func (m SendMode) String() string {
	switch m {
	case ModeStandard:
		return "standard"
	case ModeSynchronous:
		return "synchronous"
	case ModeReady:
		return "ready"
	case ModeBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("SendMode(%d)", int(m))
	}
}

// Status describes a completed receive.
type Status struct {
	Source int // matched sender's rank in the communicator
	Tag    int
	Count  int // bytes received
}

// Request is a nonblocking operation handle (MPI_Request).
type Request struct {
	done bool
	err  error

	// receive fields
	buf    []byte
	src    int // wanted source (comm rank) or AnySource
	tag    int // wanted tag or AnyTag
	ctx    int32
	status Status

	// rendezvous receive state
	rkey    uint64
	rmem    int64 // via.MemHandle, kept as int64 to avoid the import here
	rdvSize int

	// send fields
	data []byte
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done }

// Err returns the request's error, if any (e.g. truncation). Only valid
// after completion.
func (q *Request) Err() error { return q.err }

// Status returns the receive status. Only valid after completion of a
// receive request.
func (q *Request) Status() Status { return q.status }

func (q *Request) complete() {
	q.done = true
}

func (q *Request) failf(format string, args ...interface{}) {
	if q.err == nil {
		q.err = fmt.Errorf(format, args...)
	}
	q.done = true
}
