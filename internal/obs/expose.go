package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, families in sorted
// name order, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f familySnapshot, s series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
		return err
	default:
		return writeHistogram(w, f.name, s.labels, s.h)
	}
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatFloat(b.UpperBound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// bucketLabels merges an le label into an existing (possibly empty) label
// suffix.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return strings.TrimSuffix(labels, "}") + fmt.Sprintf(",le=%q}", le)
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, no exponent for small magnitudes.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PrometheusHandler serves GET /metrics.
func (r *Registry) PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// AttachPprof mounts the net/http/pprof handlers on mux under /debug/pprof/.
// Callers gate this behind a config flag: profiles expose internals and cost
// CPU, so production deployments opt in explicitly.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
