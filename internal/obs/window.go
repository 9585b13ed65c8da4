package obs

import (
	"sort"
	"sync"
	"time"
)

// Windows gives every registry metric a recent-window view alongside its
// lifetime aggregate, without touching the recording hot path at all: it is
// a fixed-size ring of whole-registry snapshots taken at a coarse cadence
// (the slot duration), and a windowed reading is simply "live value minus
// the snapshot from one window ago". Counters become rates, histograms
// become windowed bucket deltas — which yield windowed count, mean and
// quantiles exactly, because a log-bucket histogram is just a vector of
// counters — and gauges report their current value plus its change since
// the base snapshot.
//
// All cost sits on the snapshot/read path (a scrape, a /statusz render, a
// feedback tick); Observe/Inc/Add stay the single atomic ops they were.
type Windows struct {
	reg *Registry

	mu    sync.Mutex
	slots []windowSample // ring, oldest overwritten
	n     int            // filled slots
	next  int            // ring write index
	span  time.Duration  // total window covered by the ring
	slot  time.Duration  // min spacing between snapshots
	last  time.Time      // time of the newest snapshot
}

// windowSample is one point-in-time capture of every metric value.
type windowSample struct {
	at       time.Time
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]histSample
}

// histSample captures a histogram's cumulative state: per-bucket counts
// (overflow last), total count and sum. bounds aliases the histogram's
// immutable bounds slice.
type histSample struct {
	bounds []float64
	counts []int64 // len(bounds)+1, overflow last
	count  int64
	sum    float64
}

// windowSlots is the ring granularity: the window is covered by this many
// snapshots, so the windowed view's age error is at most span/windowSlots.
const windowSlots = 12

// NewWindows builds a window tracker over reg covering span (how far back
// the recent-window view reaches). Spans below one second clamp to it.
func NewWindows(reg *Registry, span time.Duration) *Windows {
	if span < time.Second {
		span = time.Second
	}
	return &Windows{
		reg:   reg,
		slots: make([]windowSample, windowSlots),
		span:  span,
		slot:  span / windowSlots,
	}
}

// Span returns the window width.
func (w *Windows) Span() time.Duration { return w.span }

// Tick takes a registry snapshot if at least one slot duration has passed
// since the previous one. It is called opportunistically from scrape and
// feedback paths — never from the estimate hot path — so an idle server
// simply has a stale window, not a broken one.
func (w *Windows) Tick(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.last.IsZero() && now.Sub(w.last) < w.slot {
		return
	}
	w.slots[w.next] = w.capture(now)
	w.next = (w.next + 1) % len(w.slots)
	if w.n < len(w.slots) {
		w.n++
	}
	w.last = now
}

// capture reads every metric in the registry. Histogram snapshots are not
// atomic across buckets — standard monitoring semantics.
func (w *Windows) capture(now time.Time) windowSample {
	s := windowSample{
		at:       now,
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]histSample{},
	}
	for _, f := range w.reg.snapshotFamilies() {
		for _, sr := range f.series {
			key := f.name + sr.labels
			switch f.kind {
			case kindCounter:
				s.counters[key] = sr.c.Value()
			case kindGauge:
				s.gauges[key] = sr.g.Value()
			default:
				h := sr.h
				hs := histSample{
					bounds: h.bounds,
					counts: make([]int64, len(h.buckets)+1),
					sum:    h.Sum(),
				}
				for i := range h.buckets {
					hs.counts[i] = h.buckets[i].Load()
					hs.count += hs.counts[i]
				}
				hs.counts[len(h.buckets)] = h.over.Load()
				hs.count += hs.counts[len(h.buckets)]
				s.hists[key] = hs
			}
		}
	}
	return s
}

// WindowStat is the recent-window reading of one metric series.
type WindowStat struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Counters: the increase over the window and its per-second rate.
	Delta int64   `json:"delta,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	// Gauges: the current value and its change over the window (zero when
	// the series was born inside the window, so no base reading exists).
	Value  float64 `json:"value,omitempty"`
	Change float64 `json:"change,omitempty"`
	// Histograms: windowed count, mean and quantiles.
	Count int64   `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	// Lifetime aggregates for the alongside view: counter value, histogram
	// count, or gauge value again.
	Lifetime float64 `json:"lifetime"`
}

// WindowView is one consistent windowed reading of the whole registry.
type WindowView struct {
	From    time.Time    `json:"from"`
	To      time.Time    `json:"to"`
	Seconds float64      `json:"seconds"`
	Stats   []WindowStat `json:"stats"`
}

// View returns the recent-window reading: live values diffed against the
// oldest retained snapshot. Before the first Tick the window is empty and
// the view spans zero seconds with lifetime values only.
func (w *Windows) View(now time.Time) WindowView {
	w.mu.Lock()
	var base windowSample
	if w.n > 0 {
		oldest := w.next - w.n
		if oldest < 0 {
			oldest += len(w.slots)
		}
		base = w.slots[oldest]
	}
	w.mu.Unlock()

	live := w.capture(now)
	view := WindowView{From: base.at, To: now}
	if !base.at.IsZero() {
		view.Seconds = now.Sub(base.at).Seconds()
	}

	keys := make([]string, 0, len(live.counters)+len(live.gauges)+len(live.hists))
	for k := range live.counters {
		keys = append(keys, k)
	}
	for k := range live.gauges {
		keys = append(keys, k)
	}
	for k := range live.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		if v, ok := live.counters[k]; ok {
			st := WindowStat{Name: k, Kind: "counter", Delta: v - base.counters[k], Lifetime: float64(v)}
			if st.Delta < 0 {
				st.Delta = v // series born inside the window
			}
			if view.Seconds > 0 {
				st.Rate = float64(st.Delta) / view.Seconds
			}
			view.Stats = append(view.Stats, st)
			continue
		}
		if v, ok := live.gauges[k]; ok {
			st := WindowStat{Name: k, Kind: "gauge", Value: v, Lifetime: v}
			if bv, ok := base.gauges[k]; ok {
				st.Change = v - bv
			}
			view.Stats = append(view.Stats, st)
			continue
		}
		hs := live.hists[k]
		st := WindowStat{Name: k, Kind: "histogram", Lifetime: float64(hs.count)}
		bs := base.hists[k]
		deltas := make([]int64, len(hs.counts))
		var dcount int64
		dsum := hs.sum
		for i := range hs.counts {
			deltas[i] = hs.counts[i]
			if bs.counts != nil && i < len(bs.counts) {
				deltas[i] -= bs.counts[i]
			}
			if deltas[i] < 0 { // racing snapshot; clamp
				deltas[i] = 0
			}
			dcount += deltas[i]
		}
		if bs.counts != nil {
			dsum -= bs.sum
		}
		st.Count = dcount
		if dcount > 0 {
			st.Mean = dsum / float64(dcount)
			st.P50 = quantileFromCounts(hs.bounds, deltas[:len(hs.bounds)], dcount, 0.5)
			st.P95 = quantileFromCounts(hs.bounds, deltas[:len(hs.bounds)], dcount, 0.95)
			st.P99 = quantileFromCounts(hs.bounds, deltas[:len(hs.bounds)], dcount, 0.99)
		}
		view.Stats = append(view.Stats, st)
	}
	return view
}
