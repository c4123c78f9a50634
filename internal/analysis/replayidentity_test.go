package analysis

// The capture pipeline's contract, observed end to end: every artifact a
// live run renders (Perfetto trace, metrics in all three formats, the
// traffic matrix, the call profile, the phase table) must be byte-identical
// when re-rendered offline from the run's capture bundle. This is what makes a bundle a faithful flight record —
// ship the .bin, regenerate everything else.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"viampi/internal/apps"
	"viampi/internal/mpi"
	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/simnet"
)

// artifacts are the rendered outputs under comparison.
type artifacts struct {
	perfetto, metricsText, metricsCSV, metricsJSON string
	matrix, profile, phaseTable                    string
}

// consumers is the full subscriber stack a run report is rendered from,
// attached identically to the live bus and to a replayed one.
type consumers struct {
	rec     *obs.Recorder
	reg     *obs.Registry
	traffic *obs.Traffic
	calls   *obs.CallProfile
	phases  *obs.PhaseTable
}

func attachConsumers(bus *obs.Bus) consumers {
	c := consumers{rec: obs.NewRecorder(), reg: obs.NewRegistry(),
		traffic: obs.NewTraffic(), calls: obs.NewCallProfile(), phases: obs.NewPhaseTable()}
	c.rec.Attach(bus)
	obs.NewCollector(c.reg).Attach(bus)
	c.traffic.Attach(bus)
	c.calls.Attach(bus)
	c.phases.Attach(bus)
	return c
}

func (c consumers) render(t *testing.T) artifacts {
	t.Helper()
	var tr, mt, mc, mj, mx, pr, ph bytes.Buffer
	if err := c.rec.WritePerfetto(&tr); err != nil {
		t.Fatalf("perfetto: %v", err)
	}
	c.reg.WriteText(&mt)
	c.reg.WriteCSV(&mc)
	c.reg.WriteJSON(&mj)
	c.traffic.WriteMatrix(&mx)
	c.traffic.WriteSummary(&mx)
	c.calls.Write(&pr)
	c.phases.Write(&ph)
	return artifacts{tr.String(), mt.String(), mc.String(), mj.String(), mx.String(), pr.String(), ph.String()}
}

// liveRun executes the CG replay with the full consumer stack plus a capture
// writer, returning the live artifacts and the sealed bundle bytes.
func liveRun(t *testing.T, cfg mpi.Config, rounds, msgBytes int) (artifacts, []byte) {
	t.Helper()
	bus := obs.NewBus()
	live := attachConsumers(bus)
	cfg.Obs = bus
	cfg.Deadline = 30 * simnet.Second
	cw, bundle, err := attachCapture(&cfg, rounds, msgBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apps.Replay(apps.CG(), cfg, rounds, msgBytes); err != nil {
		t.Fatalf("replay (%s, %d procs): %v", cfg.Policy, cfg.Procs, err)
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("sealing bundle: %v", err)
	}
	for rank := 0; rank < cfg.Procs; rank++ {
		if live.phases.Rank(rank) == nil {
			t.Fatalf("rank %d reported no phases", rank)
		}
	}
	return live.render(t), bundle.Bytes()
}

// replayBundle decodes the bundle and re-renders every artifact through
// fresh consumers.
func replayBundle(t *testing.T, raw []byte) artifacts {
	t.Helper()
	b, err := capture.ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding bundle: %v", err)
	}
	bus := obs.NewBus()
	replayed := attachConsumers(bus)
	b.EmitAll(bus)
	return replayed.render(t)
}

func compareArtifacts(t *testing.T, live, replayed artifacts) {
	t.Helper()
	check := func(name, a, b string) {
		if a == b {
			return
		}
		// Find the first differing line for an actionable failure.
		la, lb := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Errorf("%s differs at line %d:\n  live:   %s\n  replay: %s", name, i+1, la[i], lb[i])
				return
			}
		}
		t.Errorf("%s differs in length: live %d bytes, replay %d bytes", name, len(a), len(b))
	}
	check("perfetto trace", live.perfetto, replayed.perfetto)
	check("metrics text", live.metricsText, replayed.metricsText)
	check("metrics CSV", live.metricsCSV, replayed.metricsCSV)
	check("metrics JSON", live.metricsJSON, replayed.metricsJSON)
	check("traffic matrix", live.matrix, replayed.matrix)
	check("call profile", live.profile, replayed.profile)
	check("phase table", live.phaseTable, replayed.phaseTable)
}

// TestReplayReproducesLiveArtifacts is the record→replay identity matrix:
// 8 and 16 ranks under both connection-policy families.
func TestReplayReproducesLiveArtifacts(t *testing.T) {
	const rounds, msgBytes = 2, 1024
	for _, policy := range []string{"static-p2p", "ondemand"} {
		for _, procs := range []int{8, 16} {
			t.Run(fmt.Sprintf("%s/p%d", policy, procs), func(t *testing.T) {
				cfg := mpi.Config{Procs: procs, Policy: policy, Seed: 42}
				live, bundle := liveRun(t, cfg, rounds, msgBytes)
				replayed := replayBundle(t, bundle)
				compareArtifacts(t, live, replayed)
				if live.perfetto == "" || live.metricsJSON == "" || strings.Contains(live.matrix, "messages: 0,") ||
					!strings.HasPrefix(live.profile, "call ") || !strings.HasPrefix(live.phaseTable, "rank ") {
					t.Fatalf("live artifacts empty; the identity check would be vacuous:\n%s%s%s", live.matrix, live.profile, live.phaseTable)
				}
			})
		}
	}
}
