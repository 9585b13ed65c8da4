// Package obs is the observability substrate of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges and log-scale
// histograms suited to q-error and latency distributions) plus a lightweight
// span timer, with Prometheus text exposition.
//
// Every metric value is updated with atomic operations, so recording is safe
// from any goroutine and cheap enough for per-request hot paths; the registry
// mutex only guards metric *creation* and export iteration.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// cacheLine is the coherence unit Counter and Gauge are padded to.
const cacheLine = 64

// Counter is a monotonically increasing metric. It fills a cache line of
// its own: an unpadded counter is an 8-byte allocation, so counters that
// different requests write on every call would share lines in whatever
// order the registry happened to allocate them.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters never decrease).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (pool size, thresholds, …),
// padded to a cache line like Counter.
type Gauge struct {
	bits atomic.Uint64
	_    [cacheLine - 8]byte
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind distinguishes families during export; a name registered twice
// with different kinds is a programming error.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) time series inside a family.
type series struct {
	labels string // rendered {k="v",…} suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	kind   metricKind
	help   string
	series map[string]*series // keyed by rendered label suffix
}

// Registry holds named metrics and renders them for exposition. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Help attaches exposition help text to a metric name.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = help
	} else {
		r.families[name] = &family{name: name, help: help, series: map[string]*series{}}
	}
}

// labelSuffix renders alternating key/value pairs as a deterministic
// {k="v",…} suffix. Keys are sorted so the same label set always maps to the
// same series regardless of argument order.
func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		writeLabelValue(&b, p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// writeLabelValue writes v escaped once, as the exposition format wants:
// backslash, double quote and newline become \\, \" and \n; every other
// byte, UTF-8 included, goes through as it is.
func writeLabelValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// seriesFor finds or creates the series for (name, labels), enforcing kind
// consistency across the family. A new series gets its metric value in the
// same critical section that publishes it, so an export snapshot never sees
// a series without one; opts only matters for a new histogram.
func (r *Registry) seriesFor(name string, kind metricKind, opts HistogramOpts, labels []string) *series {
	suffix := labelSuffix(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	} else if len(f.series) == 0 {
		f.kind = kind // help-only placeholder adopts the first real kind
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, f.kind, kind))
	}
	s := f.series[suffix]
	if s == nil {
		s = &series{labels: suffix}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		default:
			s.h = NewHistogram(opts)
		}
		f.series[suffix] = s
	}
	return s
}

// Counter returns the counter for name with the given alternating key/value
// label pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.seriesFor(name, kindCounter, HistogramOpts{}, labels).c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.seriesFor(name, kindGauge, HistogramOpts{}, labels).g
}

// Histogram returns the histogram for name and labels, creating it with opts
// on first use (later calls ignore opts and return the existing histogram).
func (r *Registry) Histogram(name string, opts HistogramOpts, labels ...string) *Histogram {
	return r.seriesFor(name, kindHistogram, opts, labels).h
}

// NewCounter declares a counter: it attaches the exposition help and returns
// the series for labels in one call, so a metric cannot be described without
// being registered, or the reverse. NewGauge and NewHistogram do the same.
func (r *Registry) NewCounter(name, help string, labels ...string) *Counter {
	r.Help(name, help)
	return r.Counter(name, labels...)
}

// NewGauge declares a gauge; see NewCounter.
func (r *Registry) NewGauge(name, help string, labels ...string) *Gauge {
	r.Help(name, help)
	return r.Gauge(name, labels...)
}

// NewHistogram declares a histogram; see NewCounter.
func (r *Registry) NewHistogram(name, help string, opts HistogramOpts, labels ...string) *Histogram {
	r.Help(name, help)
	return r.Histogram(name, opts, labels...)
}

// familySnapshot is an export-time copy of one family: its header fields
// and its series ordered by label suffix. Exposition works on these copies
// because the live family.series map keeps growing under Registry.mu while a
// scrape renders (a first-seen label value creates a series at any time).
type familySnapshot struct {
	name   string
	kind   metricKind
	help   string
	series []series
}

// snapshotFamilies copies every family that has series, in name order, with
// each family's series in label order — all under the registry lock, so
// callers iterate without it. The metric values behind the copied pointers
// are atomics and stay live.
func (r *Registry) snapshotFamilies() []familySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]familySnapshot, 0, len(r.families))
	for _, f := range r.families {
		if len(f.series) == 0 {
			continue // help-only entry, nothing to expose
		}
		fs := familySnapshot{name: f.name, kind: f.kind, help: f.help, series: make([]series, 0, len(f.series))}
		for _, s := range f.series {
			fs.series = append(fs.series, *s)
		}
		sort.Slice(fs.series, func(i, j int) bool { return fs.series[i].labels < fs.series[j].labels })
		fams = append(fams, fs)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
