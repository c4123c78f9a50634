// Command perfbench is the repository's benchmark: it measures what the
// simulator costs the host — wall time, throughput, allocation and memory —
// on three workloads, and checks every run's outputs against seeded payload
// patterns and recorded virtual-time digests.
//
//	perfbench --workload msg-stream --seed 1 --seconds 20 --trace 0
//
// Each repetition runs in a fresh child process (the same binary, first
// argument "child"), so no memo or heap state carries from one repetition to
// the next and each has its own peak RSS. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// ../README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

var workloadNames = []string{"msg-stream", "conn-churn", "figures-quick"}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"simnet.events", "count", "lower"},
	{"simnet.host_ns_per_event", "ns", "lower"},
	{"simnet.rung.ns_per_event", "ns", "lower"},
	{"simnet.rung.allocs_per_event", "allocs", "lower"},
	{"fabric.frames", "count", "lower"},
	{"fabric.bytes", "B", "lower"},
	{"fabric.rung.ns_per_frame", "ns", "lower"},
	{"fabric.rung.allocs_per_frame", "allocs", "lower"},
	{"via.descriptors", "count", "lower"},
	{"via.vis_created", "count", "lower"},
	{"via.vis_live_peak", "count", "lower"},
	{"via.failed", "count", "lower"},
	{"via.rung.ns_per_desc", "ns", "lower"},
	{"via.rung.allocs_per_desc", "allocs", "lower"},
	{"via.rung.create_vi_ns.live256", "ns", "lower"},
	{"via.rung.create_vi_ns.closed4k", "ns", "lower"},
	{"via.rung.connect_ns", "ns", "lower"},
	{"core.connects", "count", "lower"},
	{"core.evictions", "count", "lower"},
	{"core.reconnects", "count", "lower"},
	{"core.retries", "count", "lower"},
	{"core.fifo_drained", "count", "lower"},
	{"core.channel_hit_ratio", "ratio", "higher"},
	{"core.rung.static_boot_ms", "ms", "lower"},
	{"core.rung.ondemand_boot_ms", "ms", "lower"},
	{"mpi.user_msgs", "count", "higher"},
	{"mpi.protocol_msgs", "count", "lower"},
	{"mpi.user_bytes", "B", "higher"},
	{"mpi.allocs_per_msg", "allocs", "lower"},
	{"mpi.post_ns.p50", "ns", "lower"},
	{"mpi.post_ns.p99", "ns", "lower"},
	{"mpi.wait_ns.p50", "ns", "lower"},
	{"mpi.wait_ns.p99", "ns", "lower"},
	{"mpi.allreduce_ns.p50", "ns", "lower"},
	{"mpi.boot_ms", "ms", "lower"},
	{"mpi.finalize_ms", "ms", "lower"},
	{"mpi.rung.pingpong_ns_per_msg", "ns", "lower"},
	{"mpi.rung.allocs_per_msg", "allocs", "lower"},
	{"bench.table2.host_s", "s", "lower"},
	{"bench.table3.host_s", "s", "lower"},
	{"bench.fig6.host_s", "s", "lower"},
	{"bench.fig7.host_s", "s", "lower"},
	{"bench.ext-init.host_s", "s", "lower"},
	{"bench.ext-npb.host_s", "s", "lower"},
	{"bench.ext-apps.host_s", "s", "lower"},
	{"bench.ext-scale.host_s", "s", "lower"},
	{"bench.ext-ib.host_s", "s", "lower"},
	{"bench.fig4a.host_s", "s", "lower"},
	{"bench.fig5a.host_s", "s", "lower"},
	{"bench.rest.host_s", "s", "lower"},
	{"sweep.jobs", "count", "higher"},
	{"sweep.cell_s.max", "s", "lower"},
	{"sweep.parallel_eff", "ratio", "higher"},
	{"sweep.tail_idle_s", "s", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// parallelOnly metrics are omitted when the pool has one worker: a parallel
// ratio measured on one worker compares j=1 with j=1.
var parallelOnly = map[string]bool{"sweep.parallel_eff": true, "sweep.tail_idle_s": true}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "child":
		err = childMain(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "record":
		err = recordMain("perfbench/_harness/digests.json")
	default:
		err = benchMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// hostShape is recorded with every result: a number means little without
// the machine it came from.
func hostShape() string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit+dirty)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, attempted, failed int64, values map[string]float64, defs []metricDef) error {
	r := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			r.Metrics[d.name] = metricValue{v, d.unit}
			fmt.Fprintf(w, "%-34s %16.6g %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(w, "%-34s %16.6g (failed %d of %d operations)\n", "fail_ratio", ratio(failed, attempted), failed, attempted)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1 // nearest rank
	return float64(s[max(i, 0)])
}
