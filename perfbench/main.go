// Command perfbench is the repository benchmark: the Table-1 partial
// fault inventory on the analytical and the electrical engine, and a
// mixed request stream against the analysis service. See NOTES.md for
// the workloads, the metrics and how to read a traced run.
//
// Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload table1-behav --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records
// the host (GOMAXPROCS, CPU count, Go version). The exit code is 1 when
// an output check failed and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit; the tables below are the
// benchmark's whole output vocabulary and must match BENCHMARK.json
// (TestMetricTablesMatchBenchmarkJSON checks it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"inventory_s", "s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"req_per_s", "1/s"},
}

// missEndpoints are the endpoints whose miss latency is reported on its
// own: each runs a different layer (pipeline, march engines, prover,
// net prover, stress corners). Batch misses count in the overall
// service.miss_p50_ms only.
var missEndpoints = []string{"inventory", "coverage", "matrix", "twocell", "predict", "stress"}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"behav.ops", "count"}, {"behav.op_s", "s"}, {"behav.op_us", "us"}, {"behav.builds", "count"},
		{"dram.ops", "count"}, {"dram.op_s", "s"}, {"dram.op_us", "us"}, {"dram.builds", "count"},
		{"analysis.completion.calls", "count"}, {"analysis.completion.s", "s"},
		{"analysis.completion.tried", "count"}, {"analysis.completion.np_calls", "count"},
		{"analysis.completion.np_s", "s"}, {"analysis.completion.np_tried", "count"},
		{"analysis.completion.yield", "ratio"},
		{"analysis.sweep.calls", "count"}, {"analysis.sweep.s", "s"},
		{"analysis.device_busy_frac", "ratio"},
		{"analysis.memo.hits", "count"}, {"analysis.memo.misses", "count"}, {"analysis.memo.hit_ratio", "ratio"},
		{"analysis.replay.simulated", "count"}, {"analysis.replay.replayed", "count"},
		{"analysis.trace.row_diff", "count"},
		{"trace.overhead_frac", "ratio"},
		{"service.hit_p50_ms", "ms"}, {"service.hit_p99_ms", "ms"},
		{"service.miss_p50_ms", "ms"},
	}
	for _, ep := range missEndpoints {
		defs = append(defs, metricDef{"service." + ep + ".miss_p50_ms", "ms"})
	}
	return append(defs,
		metricDef{"service.collapsed", "count"}, metricDef{"service.memo.hit_ratio", "ratio"},
		metricDef{"store.hits", "count"}, metricDef{"store.misses", "count"}, metricDef{"store.puts", "count"},
	)
}

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(seed int64, seconds float64) (result, error)
}{
	"table1-behav": {func(s int64, d float64) (result, error) { return table1Run("behav", s, d) },
		func(s int64, d float64) (result, error) { return table1Trace("behav", s, d) }},
	"table1-spice": {func(s int64, d float64) (result, error) { return table1Run("spice", s, d) },
		func(s int64, d float64) (result, error) { return table1Trace("spice", s, d) }},
	"serve-mixed": {serveRun, serveTrace},
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v, --seconds ≥ 1 and --trace 0|1\n", names)
		return 2
	}
	// Build state and scratch directories live under .bench_build in
	// the checkout; nothing the benchmark writes leaves it.
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fn := w.run
	defs := endToEnd
	if *trace == 1 {
		fn, defs = w.trace, perLayerDefs()
	}
	res, err := fn(*seed, float64(*seconds))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			m = metric{Value: 0}
		}
		m.Unit = d.unit
		res.Metrics[d.name] = m
	}
	if len(res.Metrics) != len(defs) {
		fmt.Fprintf(os.Stderr, "perfbench: internal error: %d metrics for %d definitions\n", len(res.Metrics), len(defs))
		return 2
	}
	res.Correct = res.Failed == 0
	host, _ := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"os_arch": runtime.GOOS + "/" + runtime.GOARCH, "date": time.Now().UTC().Format(time.RFC3339),
	})
	fmt.Printf("{\"host\":%s}\n", host)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

const scratchDir = ".bench_build/perfbench"

// budget says whether another operation expected to take about last
// seconds still fits in the measurement window that started at start.
func budget(start time.Time, seconds, last float64) bool {
	return time.Since(start).Seconds()+last <= seconds
}
