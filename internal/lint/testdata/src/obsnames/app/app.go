// Package app is a lint fixture for the obsnames rule. Its Registry type
// stands in for obs.Registry: the rule matches any receiver named Registry,
// so the fixture needs no module imports.
package app

type Registry struct{}
type Counter struct{}
type Gauge struct{}
type Histogram struct{}
type HistogramOpts struct{}

func (r *Registry) Counter(name string, labels ...string) *Counter { return nil }
func (r *Registry) Gauge(name string, labels ...string) *Gauge     { return nil }
func (r *Registry) Histogram(name string, opts HistogramOpts, labels ...string) *Histogram {
	return nil
}

func (r *Registry) NewCounter(name, help string, labels ...string) *Counter { return nil }
func (r *Registry) NewGauge(name, help string, labels ...string) *Gauge     { return nil }
func (r *Registry) NewHistogram(name, help string, opts HistogramOpts, labels ...string) *Histogram {
	return nil
}

// notRegistry has the same method names but a different receiver type; the
// rule must ignore it.
type notRegistry struct{}

func (notRegistry) Counter(name string) *Counter { return nil }

const viaConstant = "request_latency"

func register(r *Registry, other notRegistry) {
	r.Counter("warper_requests_total")
	r.Counter("badRequests_total")  // want "not snake_case"
	r.Counter("warper_reqs_count")  // want "must end in _total"
	r.Counter("_leading_total")     // want "not snake_case"
	r.Gauge("warper_pool_size")
	r.Gauge("PoolSize") // want "not snake_case"
	r.Histogram("warper_latency_seconds", HistogramOpts{})
	r.Histogram("warper_payload_bytes", HistogramOpts{})
	r.Histogram("warper_qerror_ratio", HistogramOpts{})
	r.Histogram("warper_latency", HistogramOpts{})     // want "must end in a unit suffix"
	r.Histogram(viaConstant, HistogramOpts{})          // want "must end in a unit suffix"
	r.Gauge("warper_latency_seconds")                  // want "registered as both histogram and gauge"
	other.Counter("notARegistry.soAnythingGoes")       // different receiver: ignored
	//lint:allow obsnames legacy dashboard name kept during migration
	r.Counter("legacy.dotted.name")

	// Overload-safety names (PR 8): serve-prefixed gauges and per-reason
	// labeled counters must pass; a reason-style counter missing _total must
	// still be caught.
	r.Gauge("serve_health_state")
	r.Counter("estimate_fallback_total", "reason", "timeout")
	r.Counter("estimate_shed_total", "reason", "queue_full")
	r.Counter("estimate_fallback", "reason", "breaker") // want "must end in _total"

	// Estimate-cache names (PR 9): event counters end in _total, the
	// occupancy gauge is a bare noun; a camel-cased cache counter must
	// still be caught.
	r.Counter("estimate_cache_hits_total")
	r.Counter("estimate_cache_misses_total")
	r.Counter("estimate_cache_evictions_total")
	r.Counter("estimate_cache_invalidations_total")
	r.Gauge("estimate_cache_entries")
	r.Counter("estimateCacheHits_total") // want "not snake_case"

	// Binary wire protocol names (PR 10): event counters end in _total and
	// the batch-size histogram uses the _rows unit; a unitless histogram and
	// a camel-cased wire counter must still be caught.
	r.Counter("wire_batches_total")
	r.Counter("wire_rows_total")
	r.Counter("wire_decode_errors_total")
	r.Counter("wire_buffer_misses_total")
	r.Histogram("wire_batch_rows", HistogramOpts{})
	r.Histogram("wire_batch_size", HistogramOpts{}) // want "must end in a unit suffix"
	r.Counter("wireBatches_total")                  // want "not snake_case"

	// The declaring forms (name + help in one call) are the same
	// registrations and get the same checks, kind clashes across the two
	// forms included.
	r.NewCounter("warper_periods_total", "Completed adaptation periods.")
	r.NewGauge("warper_pi", "Current drift threshold pi.")
	r.NewHistogram("warper_model_swap_seconds", "Swap time.", HistogramOpts{})
	r.NewCounter("warper_periods", "Completed adaptation periods.")       // want "must end in _total"
	r.NewHistogram("warper_swap", "Swap time.", HistogramOpts{})          // want "must end in a unit suffix"
	r.NewGauge("warper_requests_total", "Requests, declared as a gauge.") // want "registered as both counter and gauge"
}
