package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyScale is the smoke-test size: the same code paths as the run of
// record in a few seconds.
func tinyScale() scale {
	return scale{
		Rows: 3000, Train: 200,
		Stream: 16384, FrameRows: 256, Templates: 128, ZipfFrames: 32,
		Warmup: 200 * time.Millisecond, Window: 500 * time.Millisecond, Windows: 3,
		Phases: 3, PeriodsPerPhase: 2, ServingPhases: 1,
		Feedback: 40, Heldout: 50, Probe: 64,
		Ladder: 300,
	}
}

func tinyRun(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	rep, err := run(runConfig{
		workload: workload, seed: 7, seconds: 2, trace: trace,
		clients: 1, sc: tinyScale(), outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rep.Failed != 0 || !rep.correct() {
		t.Fatalf("%s: failed=%d violations=%v", workload, rep.Failed, rep.Violations)
	}
	return rep
}

// benchmarkJSON is the part of BENCHMARK.json the tests hold the code to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricTablesMatchBenchmarkJSON holds the names and units the command
// prints to the ones BENCHMARK.json promises.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the command runs %v", names, workloadNames)
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		want := map[string]string{}
		for _, m := range file {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, d := range code {
			got[d.name] = d.unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ:\n code %v\n file %v", kind, got, want)
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
}

// TestWorkloadsSmoke runs every workload at tiny scale, traced, and checks
// that both forms of the contract line carry exactly the promised metrics,
// all finite, with no failed operation.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers for several seconds")
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			rep := tinyRun(t, w, true)
			for _, traced := range []bool{false, true} {
				rep.Trace = traced
				line := contractOf(rep)
				defs, src := endToEndMetrics, rep.EndToEnd
				if traced {
					defs, src = perLayerMetrics, rep.Layers
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics on the contract line, want %d", traced, len(line.Metrics), len(defs))
				}
				var known []string
				for _, d := range defs {
					known = append(known, d.name)
					v, ok := src[d.name]
					if !ok {
						t.Errorf("trace=%v: %s not measured", traced, d.name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace=%v: %s = %v", traced, d.name, v)
					}
				}
				sort.Strings(known)
				for name := range src {
					if i := sort.SearchStrings(known, name); i == len(known) || known[i] != name {
						t.Errorf("trace=%v: %s measured but not declared", traced, name)
					}
				}
				if _, err := json.Marshal(line); err != nil {
					t.Errorf("trace=%v: contract line does not encode: %v", traced, err)
				}
			}
			for _, d := range endToEndMetrics {
				if rep.EndToEnd[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, rep.EndToEnd[d.name])
				}
			}
			if r := rep.Layers["bench.ladder_min_self_ratio"]; r < -0.1 {
				t.Errorf("a ladder self time is %.2f of the round trip: a rung is not nested in the one above", r)
			}
		})
	}
}

// TestAdaptDriftDeterministic: two runs of one seed play the same
// adaptation and end at the same accuracy.
func TestAdaptDriftDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the adaptation script twice")
	}
	a := tinyRun(t, "adapt_drift", false)
	b := tinyRun(t, "adapt_drift", false)
	if !reflect.DeepEqual(a.Trajectory, b.Trajectory) {
		t.Errorf("trajectories differ:\n %v\n %v", a.Trajectory, b.Trajectory)
	}
	if ga, gb := a.EndToEnd["adapt_gmq"], b.EndToEnd["adapt_gmq"]; ga != gb {
		t.Errorf("adapt_gmq %v then %v", ga, gb)
	}
	if len(a.Trajectory) != 6 {
		t.Errorf("%d periods played, want 6", len(a.Trajectory))
	}
}

// TestClientParsesBothFramings exercises the raw client against net/http:
// a short reply (Content-Length) and one past the server's buffer (chunked).
func TestClientParsesBothFramings(t *testing.T) {
	big := strings.Repeat("x", 5000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			_, _ = w.Write([]byte("ok"))
		case "/big":
			_, _ = w.Write([]byte(big))
		default:
			http.Error(w, "nope", http.StatusTeapot)
		}
	}))
	defer ts.Close()
	c, err := dial(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for round := 0; round < 3; round++ { // keep-alive: the same connection again and again
		for _, tc := range []struct {
			path, want string
			status     int
		}{{"/small", "ok", 200}, {"/big", big, 200}, {"/missing", "nope\n", http.StatusTeapot}} {
			status, body, err := c.roundTrip(request("POST", tc.path, "text/plain", []byte("hello")))
			if err != nil || status != tc.status || string(body) != tc.want {
				t.Fatalf("%s: status %d, %d body bytes, err %v", tc.path, status, len(body), err)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestSeriesWindows(t *testing.T) {
	r := newSeries(8, 4)
	r.record(10, 0)
	r.record(20, 0)
	r.record(30, 2) // window 1 stays empty
	r.seal(3)
	if got := [3]int{len(r.window(0)), len(r.window(1)), len(r.window(2))}; got != [3]int{2, 0, 1} {
		t.Errorf("window sizes %v, want [2 0 1]", got)
	}
}

// spin burns CPU for d: a slowdown of known size that, unlike a sleep, keeps
// the core busy the way slower code would.
func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

var garbage []byte

// TestInjectedSlowdownShows checks by hand that host calibration does not
// divide a real regression out (README.md, "Does a regression still show?").
// BENCH_VALIDATE=spin puts a CPU burn of a tenth of the workload's median
// request time in front of every estimate handler call and of 35 ms in front
// of every period; BENCH_VALIDATE=garbage allocates 64 KiB per request
// instead, a slowdown that works through the collector. Each workload is run
// at full scale in alternating pairs, without and with the injection, and
// the shift of every timing metric is logged as gated and as raw reading.
// About twenty minutes per kind.
func TestInjectedSlowdownShows(t *testing.T) {
	kind := os.Getenv("BENCH_VALIDATE")
	if kind == "" {
		t.Skip("set BENCH_VALIDATE=spin or =garbage; takes about twenty minutes")
	}
	runtime.GOMAXPROCS(2)
	spins := map[string]time.Duration{
		"json_scalar": 3500 * time.Nanosecond, "wire_unique": 32 * time.Microsecond,
		"wire_zipf": 8500 * time.Nanosecond, "adapt_drift": 7500 * time.Nanosecond,
	}
	const pairs = 5
	for _, w := range workloadNames {
		wrap := func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				switch {
				case kind == "garbage":
					garbage = make([]byte, 64<<10)
				case r.URL.Path == "/period":
					spin(35 * time.Millisecond)
				case strings.HasPrefix(r.URL.Path, "/estimate"):
					spin(spins[w])
				}
				h.ServeHTTP(rw, r)
			})
		}
		shifts := map[string][]float64{}
		for i := 0; i < pairs; i++ {
			var reps [2]*report
			for k := 0; k < 2; k++ {
				arm := (i + k) % 2 // alternate which arm runs first
				cfg := runConfig{workload: w, seed: int64(i + 1), seconds: 20, clients: 2, sc: fullScale(20), outDir: t.TempDir()}
				if arm == 1 {
					cfg.wrap = wrap
				}
				rep, err := run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", w, err)
				}
				reps[arm] = rep
			}
			for _, m := range []string{"estimates_per_s", "request_p50_us", "request_p95_us", "period_mean_ms"} {
				shifts[m] = append(shifts[m], reps[1].EndToEnd[m]/reps[0].EndToEnd[m]-1)
				shifts["raw."+m] = append(shifts["raw."+m], reps[1].Layers["raw."+m]/reps[0].Layers["raw."+m]-1)
			}
			shifts["p50 shift us"] = append(shifts["p50 shift us"], reps[1].EndToEnd["request_p50_us"]-reps[0].EndToEnd["request_p50_us"])
			shifts["raw p50 shift us"] = append(shifts["raw p50 shift us"], reps[1].Layers["raw.request_p50_us"]-reps[0].Layers["raw.request_p50_us"])
			shifts["base p50 us"] = append(shifts["base p50 us"], reps[0].EndToEnd["request_p50_us"])
			shifts["echo ratio"] = append(shifts["echo ratio"], reps[1].Layers["bench.echo_us"]/reps[0].Layers["bench.echo_us"]-1)
		}
		names := make([]string, 0, len(shifts))
		for name := range shifts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Logf("%-12s %-8s %-24s median of %d pairs %+8.4f   all %+.4f", w, kind, name, pairs, median(shifts[name]), shifts[name])
		}
	}
}
