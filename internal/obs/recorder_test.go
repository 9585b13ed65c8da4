package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// --- Journal -----------------------------------------------------------------

func TestJournalAppendAndEviction(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 40; i++ {
		j.Append("k", uint64(i), map[string]any{"i": i})
	}
	evs := j.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	if j.Total() != 40 {
		t.Errorf("total = %d, want 40", j.Total())
	}
	// Oldest-first, contiguous seq, newest = 39.
	for i, ev := range evs {
		if want := uint64(24 + i); ev.Seq != want {
			t.Errorf("event[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Append("k", 0, nil)
				_ = j.Snapshot()
			}
		}()
	}
	wg.Wait()
	if j.Total() != 800 {
		t.Errorf("total = %d, want 800", j.Total())
	}
}

// --- Tracer ------------------------------------------------------------------

func TestTracerSamplingAndStages(t *testing.T) {
	tr := NewTracer(1, 8)
	x := tr.Acquire("estimate")
	if x == nil {
		t.Fatal("sample-every-1 tracer returned nil")
	}
	x.EnterStage("decode")
	x.EnterStage("infer")
	x.BatchSize = 4
	x.Generation = 2
	tr.Finish(x)

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d, want 1", len(snap))
	}
	got := snap[0]
	if got.BatchSize != 4 || got.Generation != 2 || got.Handler != "estimate" {
		t.Errorf("trace fields = %+v", got)
	}
	stages := got.Stages()
	if len(stages) != 2 || stages[0].Name != "decode" || stages[1].Name != "infer" {
		t.Fatalf("stages = %+v", stages)
	}
	// Stage sum must be ≈ the request total (no gaps between EnterStage calls).
	var sum time.Duration
	for _, s := range stages {
		sum += s.Dur
	}
	if got.Total() < sum {
		t.Errorf("total %v < stage sum %v", got.Total(), sum)
	}
}

func TestTracerDisabledReturnsNil(t *testing.T) {
	tr := NewTracer(0, 8)
	for i := 0; i < 100; i++ {
		if tr.Acquire("x") != nil {
			t.Fatal("disabled tracer sampled a request")
		}
	}
	// Nil traces are inert everywhere.
	var nilTrace *Trace
	nilTrace.EnterStage("a")
	tr.Finish(nil)
}

// TestTracerZeroAllocSteady pins the sampled half of the tracer's promise:
// with every request traced, a warmed Acquire → four stages → Finish cycle
// recycles pre-allocated traces through the free list and the finished ring
// and allocates nothing. (The unsampled half — one atomic load — is part of
// serve's TestScalarZeroAllocSteady.)
func TestTracerZeroAllocSteady(t *testing.T) {
	tr := NewTracer(1, 8)
	cycle := func() {
		x := tr.Acquire("estimate")
		x.EnterStage("decode")
		x.EnterStage("cache")
		x.EnterStage("infer")
		x.EnterStage("respond")
		tr.Finish(x)
	}
	for i := 0; i < 32; i++ {
		cycle() // fill the finished ring so Finish is in its evict-and-recycle regime
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("sampled trace cycle allocates %v per request, want 0", allocs)
	}
	if got := len(tr.Snapshot()); got == 0 {
		t.Error("no trace was retained: the cycle never took the sampled path")
	}
}

func TestTracerBoundedUnderLoad(t *testing.T) {
	tr := NewTracer(1, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				x := tr.Acquire("estimate")
				x.EnterStage("infer")
				tr.Finish(x)
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Snapshot()); n != 8 {
		t.Errorf("ring retained %d traces, want 8", n)
	}
	if tr.Sampled.Load() == 0 {
		t.Error("nothing sampled")
	}
	// Sequential acquire/finish must keep succeeding forever: with at most
	// one trace in flight, the free list can never starve, no matter how
	// many traces have already flowed through the ring.
	dropped := tr.Dropped.Load()
	for i := 0; i < 100; i++ {
		x := tr.Acquire("estimate")
		if x == nil {
			t.Fatalf("sequential acquire %d returned nil: free list starved", i)
		}
		tr.Finish(x)
	}
	if got := tr.Dropped.Load(); got != dropped {
		t.Errorf("sequential acquire/finish dropped %d traces", got-dropped)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer(1, 8)
	for i := 0; i < 3; i++ {
		x := tr.Acquire("estimate")
		x.EnterStage("checkout")
		x.EnterStage("infer")
		tr.Finish(x)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	// 3 traces × (1 request event + 2 stage events).
	if len(file.TraceEvents) != 9 {
		t.Fatalf("events = %d, want 9", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("bad event %+v", ev)
		}
	}
	// Empty input still renders a valid file.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("empty trace file is invalid JSON")
	}
}

// --- Exemplars ---------------------------------------------------------------

func TestExemplarsTopK(t *testing.T) {
	e := NewExemplars(3)
	for _, q := range []float64{5, 2, 9, 1, 7, 3} {
		e.OfferQError(Exemplar{QError: q})
	}
	got := e.WorstQ()
	if len(got) != 3 || got[0].QError != 9 || got[1].QError != 7 || got[2].QError != 5 {
		t.Errorf("worstQ = %+v", got)
	}
	for _, l := range []float64{0.1, 0.5, 0.2, 0.9} {
		e.OfferSlow(Exemplar{Latency: l})
	}
	slow := e.Slowest()
	if len(slow) != 3 || slow[0].Latency != 0.9 {
		t.Errorf("slowest = %+v", slow)
	}
}

func TestExemplarsConcurrent(t *testing.T) {
	e := NewExemplars(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				e.OfferQError(Exemplar{QError: 1 + rng.Float64()*100})
				e.OfferSlow(Exemplar{Latency: rng.Float64()})
			}
		}(int64(w))
	}
	wg.Wait()
	q := e.WorstQ()
	if len(q) != 8 {
		t.Fatalf("retained %d, want 8", len(q))
	}
	for i := 1; i < len(q); i++ {
		if q[i].QError > q[i-1].QError {
			t.Errorf("worstQ not sorted: %v after %v", q[i].QError, q[i-1].QError)
		}
	}
}

// --- DriftWatch --------------------------------------------------------------

func TestDriftWatchAlarmLifecycle(t *testing.T) {
	d := NewDriftWatch(time.Minute, 4)
	d.SetMinCount(5)
	t0 := time.Unix(1000, 0)

	// Healthy feedback: no alarm.
	var st DriftState
	var tr DriftTransition
	for i := 0; i < 10; i++ {
		st, tr = d.Observe(1.5, t0.Add(time.Duration(i)*time.Second))
		if tr != DriftNone {
			t.Fatalf("healthy stream transitioned: %v", tr)
		}
	}
	if st.Alarm || st.WindowGMQ > 2 {
		t.Fatalf("healthy state = %+v", st)
	}

	// Drift: large q-errors push the windowed GMQ over the threshold.
	raised := false
	for i := 0; i < 20; i++ {
		st, tr = d.Observe(100, t0.Add(time.Duration(10+i)*time.Second))
		if tr == DriftRaised {
			raised = true
		}
	}
	if !raised || !st.Alarm {
		t.Fatalf("alarm not raised: %+v", st)
	}
	if st.WindowGMQ < 4 {
		t.Errorf("window GMQ = %v, want ≥ 4", st.WindowGMQ)
	}

	// Recovery: good feedback after the window ages the bad slots out.
	cleared := false
	for i := 0; i < 200; i++ {
		st, tr = d.Observe(1.1, t0.Add(time.Duration(30+i)*time.Second))
		if tr == DriftCleared {
			cleared = true
		}
	}
	if !cleared || st.Alarm {
		t.Fatalf("alarm not cleared: %+v", st)
	}
}

func TestDriftWatchWindowAgesOut(t *testing.T) {
	d := NewDriftWatch(time.Minute, 0) // alarms off, window still maintained
	t0 := time.Unix(0, 0)
	for i := 0; i < 30; i++ {
		d.Observe(50, t0.Add(time.Duration(i)*time.Second))
	}
	if st, _ := d.State(t0.Add(30 * time.Second)); st.Count != 30 {
		t.Fatalf("count = %d, want 30", st.Count)
	}
	// Two windows later everything is stale.
	st, _ := d.State(t0.Add(3 * time.Minute))
	if st.Count != 0 || st.WindowGMQ != 1 {
		t.Errorf("stale state = %+v", st)
	}
}

func TestDriftWatchStateClearsStalledAlarm(t *testing.T) {
	d := NewDriftWatch(time.Minute, 4)
	d.SetMinCount(5)
	t0 := time.Unix(0, 0)
	raised := false
	for i := 0; i < 30; i++ {
		if _, tr := d.Observe(100, t0.Add(time.Duration(i)*time.Second)); tr == DriftRaised {
			raised = true
		}
	}
	if !raised {
		t.Fatal("alarm never raised")
	}
	// Feedback stops entirely. Two windows later the bad slots have aged
	// out; a read must clear the alarm rather than leave it raised against
	// a perfect windowed GMQ.
	st, tr := d.State(t0.Add(5 * time.Minute))
	if tr != DriftCleared {
		t.Fatalf("transition = %v, want DriftCleared", tr)
	}
	if st.Alarm || st.WindowGMQ != 1 {
		t.Errorf("post-clear state = %+v", st)
	}
	// Further reads are steady state: no duplicate clear transitions.
	if _, tr := d.State(t0.Add(6 * time.Minute)); tr != DriftNone {
		t.Errorf("second read transitioned again: %v", tr)
	}
}

func TestDriftWatchMinCountGate(t *testing.T) {
	d := NewDriftWatch(time.Minute, 2)
	t0 := time.Unix(0, 0)
	// Huge q-errors but below the default min count: no alarm.
	var tr DriftTransition
	for i := 0; i < defaultDriftMinCount-1; i++ {
		_, tr = d.Observe(1e6, t0.Add(time.Duration(i)*time.Millisecond))
		if tr != DriftNone {
			t.Fatal("alarm fired below the observation floor")
		}
	}
}
