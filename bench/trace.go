package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a client request, a ladder
// rung, a feedback batch, an adaptation period or one of its stages.
type span struct {
	name   string
	start  time.Time
	dur    time.Duration
	parent int // index of the causing span in the log, -1 for a root
	req    int // request id shared by the spans of one request
	tid    int // client / driver lane
}

// Lanes (Chrome trace "tid") of the spans that are not a load client's:
// clients use their own index.
const (
	driverLane = 100 // feedback batches, POST /period and its stages
	ladderLane = 200 // layer-ladder requests and rungs
	probeLane  = 300 // single-layer probes
)

// spanLog keeps spans in memory until the run ends. It is bounded: a traced
// run reports how many spans it had to leave out instead of growing.
type spanLog struct {
	mu       sync.Mutex
	spans    []span
	requests int // client request spans held
	dropped  int
}

// maxSpans bounds the trace file to a size a browser's trace viewer opens;
// the load clients' request spans may take maxRequestSpans of it, so that
// the ladder, the periods and the probes always find room.
const (
	maxSpans        = 60000
	maxRequestSpans = 15000
	requestSpan     = "request"
)

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, maxSpans)} }

// add appends a span and returns its index (-1 when the log is full). A
// root span's request id is its own index.
func (l *spanLog) add(name string, start time.Time, dur time.Duration, parent, tid int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == cap(l.spans) || name == requestSpan && l.requests == maxRequestSpans {
		l.dropped++
		return -1
	}
	if name == requestSpan {
		l.requests++
	}
	id := len(l.spans)
	req := id
	if parent >= 0 {
		req = l.spans[parent].req
	}
	l.spans = append(l.spans, span{name, start, dur, parent, req, tid})
	return id
}

// write renders the log as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev): one complete ("X") event per span, ts/dur in µs, with
// the span's id, parent and request id in args.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var epoch time.Time
	if len(l.spans) > 0 {
		epoch = l.spans[0].start
	}
	_, _ = w.WriteString("[\n") // bufio defers the error to Flush
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		if err := enc.Encode(event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(epoch)) / 1e3,
			Dur: float64(s.dur) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]int{"id": i, "parent": s.parent, "request": s.req},
		}); err != nil {
			_ = f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
