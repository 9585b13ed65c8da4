package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/obs"
	"warper/internal/query"
	"warper/internal/serve"
	"warper/internal/warper"
	"warper/internal/workload"
)

// The -servebench mode measures /estimate serving throughput at a fixed
// concurrent client count, comparing the replica-pool server against the
// single-lock design it replaced. Every served
// answer is checked against a reference clone, so the speedup numbers in
// BENCH_PR5.json are certified byte-identical, not approximate.

// serveClients is the concurrency level of the acceptance criterion: eight
// clients issuing estimates back to back.
const serveClients = 8

// lockedEstimator reproduces the pre-replica-pool serving core, including
// its per-request lock-wait span: one model, one mutex, every estimate
// serialized through both.
type lockedEstimator struct {
	mu       sync.Mutex
	m        ce.Estimator
	lockWait *obs.Histogram
}

func (s *lockedEstimator) Estimate(p query.Predicate) float64 {
	sp := obs.StartSpan(s.lockWait)
	s.mu.Lock()
	sp.End()
	defer s.mu.Unlock()
	return s.m.Estimate(p)
}

// servePasses is how many interleaved measurement passes each configuration
// gets; the reported number is the fastest pass, which strips scheduler and
// machine noise the same way for every configuration.
const servePasses = 3

// runServeBench executes the serving benchmark and writes the report to out.
func runServeBench(out string, quick bool) error {
	nTrain, total := 500, 100000
	if quick {
		nTrain, total = 200, 5000
	}
	rng := rand.New(rand.NewSource(17))
	tbl := dataset.PRSA(3000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	ctx := context.Background()
	gTrain := workload.New("w1", tbl, sch, workload.Options{MaxConstrained: 2})
	gServe := workload.New("w4", tbl, sch, workload.Options{MaxConstrained: 2})
	train, err := ann.AnnotateAll(ctx, workload.Generate(gTrain, nTrain, rng))
	if err != nil {
		return err
	}
	lm := ce.NewLM(ce.LMMLP, sch, 31)
	if err := lm.Train(train); err != nil {
		return err
	}
	ad, err := warper.New(warper.DefaultConfig(), lm, sch, ann, train)
	if err != nil {
		return err
	}

	// A fixed predicate set with reference answers from a private clone:
	// the byte-identity oracle for every serving configuration below.
	preds := make([]query.Predicate, 256)
	want := make([]float64, len(preds))
	ref := lm.Clone()
	for i := range preds {
		preds[i] = gServe.Gen(rng).Normalize(sch)
		want[i] = ref.Estimate(preds[i])
	}

	rep := &microReport{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Quick:         quick,
	}

	// measure drives total estimates through est from serveClients
	// goroutines and returns the wall-clock ns per estimate.
	measure := func(name string, est func(query.Predicate) float64) (float64, error) {
		var next atomic.Int64
		var bad atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < serveClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := next.Add(1) - 1
					if n >= int64(total) {
						return
					}
					i := int(n) % len(preds)
					if got := est(preds[i]); got != want[i] {
						bad.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if bad.Load() > 0 {
			return 0, fmt.Errorf("%s: %d of %d estimates diverged from the reference", name, bad.Load(), total)
		}
		return float64(elapsed.Nanoseconds()) / float64(total), nil
	}

	// The two serving cores under test. The baseline is the single-lock
	// design PR 5 removed; the other is the live serve.Server.
	locked := &lockedEstimator{
		m:        lm.Clone(),
		lockWait: obs.NewRegistry().Histogram("lock_wait_seconds", obs.LatencyOpts()),
	}
	direct := serve.NewWithOptions(ad, sch, serve.Options{Replicas: serveClients})
	defer direct.Close()

	// The flight-recorder acceptance check rides along: the tracer envelope
	// the HTTP handler wraps around every estimate (Acquire → EnterStage →
	// Finish) must cost nothing when sampling is off. These two wrappers
	// reproduce that envelope around the replica-pool path with sampling off
	// and fully on.
	tracerOff := obs.NewTracer(0, 64)
	tracerOn := obs.NewTracer(1, 64)
	envelope := func(tr *obs.Tracer) func(query.Predicate) float64 {
		return func(p query.Predicate) float64 {
			t := tr.Acquire("estimate")
			t.EnterStage("infer")
			v := direct.Estimate(p)
			tr.Finish(t)
			return v
		}
	}

	configs := []struct {
		name string
		est  func(query.Predicate) float64
	}{
		{"serve_estimate_single_lock", locked.Estimate},
		{"serve_estimate_replicas", direct.Estimate},
		{"serve_estimate_tracer_off", envelope(tracerOff)},
		{"serve_estimate_traced", envelope(tracerOn)},
	}

	// Allocation acceptance: with sampling off the tracer envelope must add
	// exactly zero allocations per estimate over the bare replica path.
	allocsPer := func(est func(query.Predicate) float64) float64 {
		i := 0
		return testing.AllocsPerRun(512, func() {
			est(preds[i%len(preds)])
			i++
		})
	}
	aBare := allocsPer(direct.Estimate)
	aOff := allocsPer(envelope(tracerOff))
	aOn := allocsPer(envelope(tracerOn))
	fmt.Printf("allocs/op: replicas %.2f, tracer-off %.2f, traced %.2f\n", aBare, aOff, aOn)
	if aOff > aBare {
		return fmt.Errorf("tracing off added allocations on the estimate path: %.2f -> %.2f allocs/op", aBare, aOff)
	}
	allocsByName := map[string]float64{
		"serve_estimate_replicas":   aBare,
		"serve_estimate_tracer_off": aOff,
		"serve_estimate_traced":     aOn,
	}

	best := make(map[string]float64, len(configs))
	for pass := 0; pass < servePasses; pass++ {
		for _, cf := range configs {
			ns, err := measure(cf.name, cf.est)
			if err != nil {
				return err
			}
			fmt.Printf("pass %d  %-28s %10.0f ns/op\n", pass+1, cf.name, ns)
			if b, ok := best[cf.name]; !ok || ns < b {
				best[cf.name] = ns
			}
		}
	}
	for _, cf := range configs {
		nsPerOp := best[cf.name]
		rep.Benchmarks = append(rep.Benchmarks, microResult{
			Name:          cf.name,
			Iterations:    total * servePasses,
			NsPerOp:       nsPerOp,
			AllocsPerOp:   int64(allocsByName[cf.name] + 0.5),
			SamplesPerSec: 1e9 / nsPerOp,
		})
		fmt.Printf("%-28s %10.0f ns/op %12.0f est/s  (best of %d, %d clients, byte-identical)\n",
			cf.name, nsPerOp, 1e9/nsPerOp, servePasses, serveClients)
	}

	ratio := func(name, num, den string) {
		var nv, dv float64
		for _, b := range rep.Benchmarks {
			if b.Name == num {
				nv = b.NsPerOp
			}
			if b.Name == den {
				dv = b.NsPerOp
			}
		}
		if nv > 0 && dv > 0 {
			rep.Ratios = append(rep.Ratios, microRatio{Name: name, Numerator: num, Denominator: den, Speedup: nv / dv})
			fmt.Printf("%-28s %.2fx\n", name, nv/dv)
		}
	}
	ratio("serve_replicas_speedup", "serve_estimate_single_lock", "serve_estimate_replicas")
	// ≈1.00x is the acceptance target: tracing off must be free.
	ratio("serve_tracer_off_overhead", "serve_estimate_tracer_off", "serve_estimate_replicas")

	// Snapshot the adaptation event journal as a CI artifact when asked: one
	// empty-buffer period gives the journal real period_start/period_end/
	// model_swap content to capture.
	if path := os.Getenv("WARPER_EVENTS_OUT"); path != "" {
		h := direct.Handler()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", "/period", nil))
		if rw.Code != 200 {
			return fmt.Errorf("events artifact: POST /period = %d", rw.Code)
		}
		rw = httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/events", nil))
		if rw.Code != 200 {
			return fmt.Errorf("events artifact: GET /debug/events = %d", rw.Code)
		}
		if err := os.WriteFile(path, rw.Body.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
