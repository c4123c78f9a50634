package obs

// Recorder is a bus subscriber that retains the full event log, optionally
// split into named runs (cmd/figures records every measurement run of an
// experiment into one recorder; each run becomes a Perfetto process).
type Recorder struct {
	Attachment
	runs []run
}

type run struct {
	label  string
	events []Event
}

// NewRecorder returns a recorder with one open (unnamed) run.
func NewRecorder() *Recorder {
	r := &Recorder{runs: []run{{}}}
	r.Attachment = Feeding(r.record)
	return r
}

func (r *Recorder) record(e Event) {
	cur := &r.runs[len(r.runs)-1]
	cur.events = append(cur.events, e)
}

// NextRun closes the current run and starts a new one labelled label.
// If the current run is empty it is relabelled instead, so the first
// NextRun before any traffic does not leave a ghost run.
func (r *Recorder) NextRun(label string) {
	cur := &r.runs[len(r.runs)-1]
	if len(cur.events) == 0 {
		cur.label = label
		return
	}
	r.runs = append(r.runs, run{label: label})
}

// Events returns the events of the current (last) run.
func (r *Recorder) Events() []Event {
	return r.runs[len(r.runs)-1].events
}

// Len returns the total number of recorded events across runs.
func (r *Recorder) Len() int {
	n := 0
	for _, ru := range r.runs {
		n += len(ru.events)
	}
	return n
}
