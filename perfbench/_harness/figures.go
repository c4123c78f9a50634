package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"
	"time"

	"viampi/internal/bench"
)

// namedExperiments get their own bench.<id>.host_s metric; every other
// experiment's host time is summed into bench.rest.host_s.
var namedExperiments = []string{
	"table2", "table3", "fig6", "fig7", "ext-init", "ext-npb", "ext-apps",
	"ext-scale", "ext-ib", "fig4a", "fig5a",
}

func experimentIDs(sz size) []string {
	if sz.experiments != nil {
		return sz.experiments
	}
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// figuresResult is one figures-quick pass: its rendered-table digests and,
// when traced, host time per experiment and the sweep runner's timeline.
type figuresResult struct {
	ops, failed int64
	digest      Digest
	hostS       map[string]float64 // experiment ID → host seconds (traced)
	sweep       *progressLog       // traced only
}

// runFigures runs every experiment with Options{Quick: true} in order, as
// the figures command does, digesting each rendered table.
func runFigures(ids []string, seed int64, workers int, traced bool) figuresResult {
	res := figuresResult{ops: int64(len(ids)), digest: Digest{Tables: map[string]string{}}}
	opt := bench.Options{Quick: true, Seed: seed, Workers: workers}
	if traced {
		res.hostS = map[string]float64{}
		res.sweep = &progressLog{workers: workers}
		opt.Progress = res.sweep.line
	}
	var buf bytes.Buffer
	for _, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			res.failed++
			continue
		}
		t0 := time.Now()
		if traced {
			res.sweep.mark(t0)
		}
		tab, err := e.Run(opt)
		if traced {
			res.hostS[id] = time.Since(t0).Seconds()
		}
		if err != nil {
			res.failed++
			continue
		}
		buf.Reset()
		tab.Render(&buf)
		sum := sha256.Sum256(buf.Bytes())
		res.digest.Tables[id] = hex.EncodeToString(sum[:])
	}
	return res
}

// progressLog timestamps the sweep runner's Options.Progress callbacks. The
// runner calls it once per finished job ("label: d/T done, ...") and once
// per batch ("label: T/T done in Xs", final); workers call it concurrently.
type progressLog struct {
	mu      sync.Mutex
	workers int

	last      time.Time // previous callback, or the current experiment's start
	inBatch   bool
	tailFrom  time.Time // when fewer jobs than workers remained, zero before
	jobs      int
	cellMax   float64 // longest completion-to-completion gap, s
	cellSum   float64 // sum of the gaps, s
	tailIdleS float64
}

// mark records the start of an experiment; the first job of its next batch
// is timed from here.
func (p *progressLog) mark(t time.Time) {
	p.mu.Lock()
	p.last = t
	p.mu.Unlock()
}

func (p *progressLog) line(line string, final bool) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if final {
		if p.inBatch && !p.tailFrom.IsZero() {
			p.tailIdleS += now.Sub(p.tailFrom).Seconds()
		}
		p.inBatch, p.tailFrom, p.last = false, time.Time{}, now
		return
	}
	done, total, ok := parseProgress(line)
	if !ok {
		return
	}
	if !p.inBatch {
		p.inBatch = true
		if total < p.workers {
			p.tailFrom = p.last
		}
	}
	gap := now.Sub(p.last).Seconds()
	p.cellSum += gap
	if gap > p.cellMax {
		p.cellMax = gap
	}
	p.jobs++
	if p.tailFrom.IsZero() && total-done < p.workers {
		p.tailFrom = now
	}
	p.last = now
}

// parseProgress extracts d and T from "label: d/T done, ...".
func parseProgress(line string) (done, total int, ok bool) {
	end := strings.Index(line, " done")
	if end < 0 {
		return 0, 0, false
	}
	field := line[strings.LastIndex(line[:end], " ")+1 : end]
	d, t, found := strings.Cut(field, "/")
	if !found {
		return 0, 0, false
	}
	done, err1 := strconv.Atoi(d)
	total, err2 := strconv.Atoi(t)
	return done, total, err1 == nil && err2 == nil
}
