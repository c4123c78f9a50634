package mpi

import (
	"bytes"
	"strings"
	"testing"

	"viampi/internal/obs"
)

// withReports turns cfg's observability bus on and attaches the call-profile
// and phase-table subscribers a run report is rendered from.
func withReports(cfg *Config) (*obs.CallProfile, *obs.PhaseTable) {
	cfg.Obs = obs.NewBus()
	calls, phases := obs.NewCallProfile(), obs.NewPhaseTable()
	calls.Attach(cfg.Obs)
	phases.Attach(cfg.Obs)
	return calls, phases
}

func TestProfileAccounting(t *testing.T) {
	cfg := testCfg(4)
	calls, _ := withReports(&cfg)
	runWorld(t, cfg, func(r *Rank) {
		c := r.World()
		for i := 0; i < 10; i++ {
			if err := c.Barrier(); err != nil {
				t.Error(err)
				return
			}
		}
		if r.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 100)); err != nil {
				t.Error(err)
			}
		} else if r.Rank() == 1 {
			buf := make([]byte, 128)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				t.Error(err)
			}
		}
	})
	if n, d := calls.Stat("Barrier", 0); n != 10 || d <= 0 {
		t.Fatalf("Barrier profile on rank 0: %d calls, %v", n, d)
	}
	if n, _ := calls.Stat("Send", 0); n != 1 {
		t.Fatalf("Send profile on rank 0: %d calls", n)
	}
	// Nested Wait inside Barrier/Send must NOT appear separately.
	if n, _ := calls.Stat("Wait", 0); n != 0 {
		t.Fatalf("nested Wait leaked into the profile: %d calls", n)
	}
	if n, _ := calls.Stat("Waitall", 0); n != 0 {
		t.Fatalf("nested Waitall leaked into the profile: %d calls", n)
	}
	var buf bytes.Buffer
	calls.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "Barrier") || !strings.Contains(out, "call") {
		t.Fatalf("profile output:\n%s", out)
	}
}

// TestProfileDisabledByDefault pins the zero-cost path: without a bus a rank
// carries no profiler at all, and a profile that saw no call spans says so.
func TestProfileDisabledByDefault(t *testing.T) {
	runWorld(t, testCfg(2), func(r *Rank) {
		if r.prof != nil {
			t.Error("profiler allocated without an observability bus")
		}
		if err := r.World().Barrier(); err != nil {
			t.Error(err)
		}
	})
	var buf bytes.Buffer
	obs.NewCallProfile().Write(&buf)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatalf("empty profile rendering: %s", buf.String())
	}
}
