package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary:
// benchMain re-executes its own binary with first argument "child" for every
// repetition.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:], os.Stdout); err != nil {
			os.Stderr.WriteString("perfbench child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name string }               `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricTablesMatchBenchmarkFile keeps the harness's metric tables and
// BENCHMARK.json in step: same names, units and directions, same order.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.name != w.Name || g.unit != w.Unit || g.better != w.Better {
				t.Errorf("%s[%d]: harness %+v, BENCHMARK.json %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	for i, w := range f.Workloads {
		if i >= len(workloadNames) || workloadNames[i] != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %v", i, w.Name, workloadNames)
		}
	}
}

// TestTinyPassPrintsEveryMetric runs every workload at the self-test size,
// untraced and traced, through the command-line entry point, and checks the
// last output line: correct, and every metric BENCHMARK.json names printed
// with its unit.
func TestTinyPassPrintsEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := benchMain([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"}, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
				}
				want := f.EndToEnd
				if trace == "1" {
					want = f.PerLayer
				}
				n := 0
				for _, m := range want {
					if trace == "1" && parallelOnly[m.Name] && runtime.NumCPU() < 2 {
						continue
					}
					n++
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(r.Metrics) != n {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), n)
				}
				if trace == "0" && r.Metrics["wall_s"].Value <= 0 {
					t.Errorf("wall_s = %v", r.Metrics["wall_s"].Value)
				}
			})
		}
	}
}

// TestFlippedPayloadByteFails corrupts one payload byte in flight; exactly
// that message must fail its check.
func TestFlippedPayloadByteFails(t *testing.T) {
	ms := newMsgStream(2, tinySize.msgRounds)
	ms.fault = fault{on: true, round: 5, rank: 3}
	cc := newConnChurn(2, tinySize.churnSteps)
	rank := 0
	for cc.partner[4][rank] < 0 {
		rank++
	}
	cc.fault = fault{on: true, round: 4, rank: rank}
	for name, w := range map[string]messageWorkload{"msg-stream": ms, "conn-churn": cc} {
		r := runMessages(w, 2, false)
		if r.run.err != nil {
			t.Fatalf("%s: %v", name, r.run.err)
		}
		if r.failed != 1 {
			t.Errorf("%s: %d of %d operations failed, want exactly the corrupted one", name, r.failed, r.ops)
		}
	}
}

// TestWrongDigestFails checks the virtual-time oracle: a run matching its
// recorded digest passes, and a wrong recorded digest fails the run's
// operations (all of them for a message workload, the table concerned for
// figures-quick).
func TestWrongDigestFails(t *testing.T) {
	for _, name := range workloadNames {
		first, err := runOnce(name, 4, false, tinySize, 2, nil)
		if err != nil || first.Failed != 0 {
			t.Fatalf("%s: err=%v failed=%d (%s)", name, err, first.Failed, first.Error)
		}
		good := Digests{name: {"4": first.Digest}}
		if r, _ := runOnce(name, 4, false, tinySize, 2, good); r.Failed != 0 {
			t.Errorf("%s: matching digest: %d operations failed (%s)", name, r.Failed, r.Error)
		}
		bad := first.Digest
		wantFailed := first.Ops
		if name == "figures-quick" {
			bad.Tables = map[string]string{}
			for id, h := range first.Digest.Tables {
				bad.Tables[id] = h
			}
			bad.Tables[tinySize.experiments[0]] = strings.Repeat("0", 64)
			wantFailed = 1
		} else {
			bad.Events++
		}
		r, _ := runOnce(name, 4, false, tinySize, 2, Digests{name: {"4": bad}})
		if r.Failed != wantFailed {
			t.Errorf("%s: wrong digest: %d of %d operations failed, want %d", name, r.Failed, r.Ops, wantFailed)
		}
	}
}

func TestParseProgress(t *testing.T) {
	for line, want := range map[string][2]int{
		"figures/ext-init: 3/10 done, last ext-init/np=1024/on-demand, eta 12.4s": {3, 10},
		"fig6: 12/12 done in 3.2s": {12, 12},
	} {
		d, n, ok := parseProgress(line)
		if !ok || d != want[0] || n != want[1] {
			t.Errorf("parseProgress(%q) = %d, %d, %v; want %v", line, d, n, ok, want)
		}
	}
	if _, _, ok := parseProgress("garbage"); ok {
		t.Error("parseProgress accepted a line with no count")
	}
}
