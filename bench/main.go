// Command bench is the repository's benchmark of record: four long-run
// workloads against the system cmd/warperd serves, measured end to end and
// layer by layer. BENCHMARK.json at the repository root names the metrics;
// README.md in this directory explains them.
//
//	go run ./bench -workload wire_zipf -seed 1            # one gated run
//	go run ./bench -workload wire_zipf -seed 1 -trace 1   # per-layer run, writes bench/out/wire_zipf.trace.json
//	go run ./bench -all                                   # all four workloads, both runs
//	go run ./bench -aa 5                                  # A/A agreement check against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when an
// answer was wrong or a workload invariant broke.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names and units (the smoke test holds the two together) plus the bounds.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"estimates_per_s", "1/s"},
	{"request_p50_us", "us"},
	{"request_p95_us", "us"},
	{"live_heap_mb", "MB"},
	{"period_mean_ms", "ms"},
	{"adapt_gmq", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"http.roundtrip_p50_us", "us"},
	{"http.roundtrip_p99_us", "us"},
	{"http.transport_self_us", "us"},
	{"serve.handler_p50_us", "us"},
	{"serve.codec_self_us", "us"},
	{"serve.core_p50_us", "us"},
	{"serve.core_self_us", "us"},
	{"serve.checkouts", "count"},
	{"serve.checkout_waits", "count"},
	{"serve.checkout_wait_p95_us", "us"},
	{"serve.replica_refreshes", "count"},
	{"serve.fallback_answers", "count"},
	{"serve.shed", "count"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.cache_invalidations", "count"},
	{"serve.period_overhead_ms", "ms"},
	{"serve.period_failures", "count"},
	{"serve.swap_ms", "ms"},
	{"serve.feedback_p50_us", "us"},
	{"wire.decode_us_per_frame", "us"},
	{"wire.encode_us_per_frame", "us"},
	{"wire.batches", "count"},
	{"wire.rows", "count"},
	{"wire.buffer_misses", "count"},
	{"query.featurize_ns_per_row", "ns"},
	{"ce.estimate_all_us_per_frame", "us"},
	{"ce.estimate_ns_per_row", "ns"},
	{"nn.infer_ns_per_row", "ns"},
	{"ce.clone_us", "us"},
	{"ce.update_ms_per_100", "ms"},
	{"warper.detect_ms", "ms"},
	{"warper.generate_ms", "ms"},
	{"warper.pick_ms", "ms"},
	{"warper.annotate_ms", "ms"},
	{"warper.update_ms", "ms"},
	{"warper.periods", "count"},
	{"warper.periods_updated", "count"},
	{"warper.generated", "count"},
	{"warper.annotated", "count"},
	{"warper.early_stops", "count"},
	{"warper.train_samples", "count"},
	{"warper.pool_size_end", "count"},
	{"annotator.count_us_per_pred", "us"},
	{"annotator.rows_per_s", "1/s"},
	{"process.cpu_us_per_estimate", "us"},
	{"process.cpu_s_total", "s"},
	{"process.alloc_bytes_per_request", "B"},
	{"process.alloc_mb_per_period", "MB"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"process.peak_rss_mb", "MB"},
	{"process.goroutines_end", "count"},
	{"request_p99_us", "us"},
	{"raw.estimates_per_s", "1/s"},
	{"raw.request_p50_us", "us"},
	{"raw.request_p95_us", "us"},
	{"raw.period_mean_ms", "ms"},
	{"raw.window_cv", "ratio"},
	{"bench.echo_us", "us"},
	{"bench.echo_cv", "ratio"},
	{"bench.echo_samples_dropped", "count"},
	{"bench.window_cv", "ratio"},
	{"bench.windows", "count"},
	{"bench.samples", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.ladder_requests", "count"},
	{"bench.ladder_miss_rows_per_request", "count"},
	{"bench.ladder_min_self_ratio", "ratio"},
	{"bench.spans", "count"},
	{"bench.spans_dropped", "count"},
}

// metricValue is one entry of the contract line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// traceDir is where a traced run writes its span file, relative to the
// checkout root the command is run from.
const traceDir = "bench/out"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: json_scalar, wire_unique, wire_zipf or adapt_drift")
		seed     = flag.Int64("seed", 1, "seed of every estimate request: stream predicates, templates, Zipf draws, probes (the adaptation scenario is fixed)")
		seconds  = flag.Int("seconds", 20, "seconds of measuring windows of a serving workload; the adapt_drift script has max(1, seconds/6) periods per phase")
		trace    = flag.Int("trace", 0, "1: the per-layer run (client spans, layer ladder, single-layer probes) instead of the gated run")
		all      = flag.Bool("all", false, "run every workload, untraced then traced")
		aa       = flag.Int("aa", 0, "A/A mode: run every workload N times as set A and N times as set B and compare against the bounds")
	)
	flag.Parse()

	// Two cores at most: the reference host has two, and pinning keeps a
	// larger host from changing what the workloads contend for. A serving
	// workload has as many closed-loop connections, never more than CPUs:
	// more clients would time each other, not the server.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}

	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds))
	case *all:
		os.Exit(runAll(*seed, *seconds))
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		fatalf("-workload must be one of %v", workloadNames)
	}
	rep, err := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		clients: procs, sc: fullScale(*seconds), outDir: traceDir,
	})
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	printReport(rep)
	if err := emit(rep); err != nil {
		fatalf("%v", err)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// contractOf selects the metrics the run's mode owes the contract line:
// every end-to-end metric for the gated run, every per-layer metric for the
// traced one.
func contractOf(rep *report) contractLine {
	defs, src := endToEndMetrics, rep.EndToEnd
	if rep.Trace {
		defs, src = perLayerMetrics, rep.Layers
	}
	line := contractLine{
		Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{src[d.name], d.unit}
	}
	return line
}

// emit prints the machine-readable tail: the full report on one line for
// this command's own -all/-aa modes, then the contract line.
func emit(rep *report) error {
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("report: %s\n", full)
	out, err := json.Marshal(contractOf(rep))
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printReport is the human-readable form: every metric by name with its
// unit, the host, and anything that makes the run less than trustworthy.
func printReport(rep *report) {
	mode := "gated run (tracing off)"
	if rep.Trace {
		mode = "per-layer run (tracing on; end-to-end numbers of this run are not the gated ones)"
	}
	fmt.Printf("workload %s  seed %d  %s\n", rep.Workload, rep.Seed, mode)
	fmt.Printf("host: num_cpu=%d GOMAXPROCS=%d %s  clients=%d frame_rows=%d windows=%dx%.0fs samples=%d run_s=%.1f\n",
		rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, rep.Clients, rep.FrameRows, rep.Windows, rep.WindowS, rep.Samples, rep.RunS)
	fmt.Printf("operations: attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	fmt.Println("end to end:")
	for _, d := range endToEndMetrics {
		fmt.Printf("  %-36s %16.4f %s\n", d.name, rep.EndToEnd[d.name], d.unit)
	}
	fmt.Println("per layer:")
	units := map[string]string{}
	for _, d := range perLayerMetrics {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(rep.Layers))
	for name := range rep.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-36s %16.4f %s\n", name, rep.Layers[name], units[name])
	}
	if len(rep.Trajectory) > 0 {
		fmt.Printf("adaptation trajectory (mode/generated/picked/annotated): %v\n", rep.Trajectory)
	}
	for _, f := range rep.Flags {
		fmt.Printf("FLAG: %s\n", f)
	}
	for _, v := range rep.Violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
