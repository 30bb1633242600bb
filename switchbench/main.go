// Command switchbench is the repository benchmark: one program and two
// workloads (churn, switch) run against the library's public entry
// points — core.Device, cluster.Cluster, flowtable.Pipeline and
// ingress.Engine. A run builds its inputs from --seed, measures for
// --seconds, checks a decision sample against the independent
// swclass.Linear reference, audits every backend, and prints its result
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run times the benchmark's own calls into each layer and prints the
// per-layer set instead. The line before the result records provenance
// and the figures that are zero by design. LAYERS.md explains the
// metrics and splits a lookup and an update into their layers.
//
// Build and run it from the repository root with
//
//	bash switchbench/run.sh --workload churn --seed 1 --seconds 55 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload prints
// all of them (see LAYERS.md for what each means on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_kpps", "kpps"},
	{"batch_p99_us", "us"},
	{"update_ops_s", "1/s"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"alloc_kb_per_update", "KB"},
	{"cycles_per_update", "cycles"},
	{"live_heap_mb", "MB"},
}

// perLayer is printed by the traced run.
var perLayer = []metricSpec{
	{"traced.throughput_kpps", "kpps"},
	{"batch_p50_us", "us"},
	{"rules.encode_ns", "ns"},
	{"rules.entries_per_rule", "count"},
	{"sram.search_ns", "ns"},
	{"sram.nor_ns", "ns"},
	{"core.active_subtables", "count"},
	{"core.lookup_ns_per_pkt", "ns"},
	{"core.kernel_share", "ratio"},
	{"core.scratch_reuse", "ratio"},
	{"core.insert_us_p50", "us"},
	{"core.delete_us_p50", "us"},
	{"core.views_rebuilt_per_update", "count"},
	{"core.global_rebuilds_per_update", "count"},
	{"core.allocs_per_update", "count"},
	{"core.realloc_share", "ratio"},
	{"core.host_ns_per_cycle", "x"},
	{"go.gc_per_s", "1/s"},
	{"go.gc_pause_ms_per_s", "ms/s"},
	{"cluster.batch_us", "us"},
	{"cluster.shard_us_max", "us"},
	{"cluster.fanout_us", "us"},
	{"cluster.shard_imbalance", "ratio"},
	{"flowtable.batch_us", "us"},
	{"flowtable.tables_per_pkt", "count"},
	{"flowtable.miss_batch_size", "count"},
	{"ingress.hit_ratio", "ratio"},
	{"ingress.epochs_per_kpkt", "count"},
	{"ingress.fastpath_ns_per_pkt", "ns"},
	{"ingress.slowpath_share", "ratio"},
}

var workloads = map[string]func(*run) error{
	"churn":  churn,
	"switch": switchWorkload,
}

// run is one benchmark run: its settings, the metrics it measured and
// the outcome of its checks.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool

	m     map[string]float64
	info  map[string]any
	tally tally
}

func newRun(workload string, seed int64, dur time.Duration, traced bool) *run {
	return &run{
		workload: workload, seed: seed, dur: dur, traced: traced,
		m: make(map[string]float64), info: make(map[string]any),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the printed result from the metric set of the run's
// mode; a metric the workload failed to measure is an error.
func (r *run) result() (result, error) {
	specs := endToEnd
	if r.traced {
		specs = perLayer
	}
	out := result{
		Correct:   r.tally.correct(),
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := r.m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s not measured (%v)", r.workload, s.name, v)
		}
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if out.Attempted < 1 {
		return result{}, fmt.Errorf("%s: nothing attempted", r.workload)
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "churn", "workload: churn or switch")
	seed := flag.Int64("seed", 1, "seed for rulesets, packet traces and update traces")
	seconds := flag.Int("seconds", 55, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "switchbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	// Latencies are read from the CPU clock of the timing goroutine's
	// thread; the main goroutine times set-up, updates and bursts.
	runtime.LockOSThread()
	r := newRun(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "switchbench:", err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "switchbench:", err)
		os.Exit(1)
	}

	r.info["provenance"] = map[string]any{
		"git_sha":    gitSHA(),
		"go_version": runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    *seconds,
		"trace":      *traceFlag,
	}
	r.info["failed_ratio"] = r.tally.failedRatio()
	if len(r.tally.problems) > 0 {
		r.info["problems"] = r.tally.problems
	}
	for _, v := range []any{r.info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "switchbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// gitSHA is the commit the benchmark was built from, as run.sh passes
// it; "unknown" outside a git checkout.
func gitSHA() string {
	if s := os.Getenv("SWITCHBENCH_GIT_SHA"); s != "" {
		return s
	}
	return "unknown"
}
