// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): one function per experiment, each returning printable
// Tables with the same rows/series the paper reports. The cmd/warperbench
// binary and the repository's benchmarks drive these functions.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"warper/internal/warper"
)

// Scale sizes an experiment run. The paper uses 30-minute windows, queries
// every 5 s and 10 repetitions; these knobs let the same code run at
// CI-scale or paper-scale.
type Scale struct {
	// TrainSize is |𝕀train|, the original training corpus per dataset.
	TrainSize int
	// StreamSize is the number of new-workload queries that arrive over the
	// whole test period.
	StreamSize int
	// PeriodSize is the number of arrivals per adaptation period.
	PeriodSize int
	// TestSize is the hold-out evaluation set size.
	TestSize int
	// Runs is the number of repetitions aggregated per configuration.
	Runs int
	// Rows overrides dataset row counts (0 = package defaults).
	Rows int
	// Warper holds the Warper configuration template (seed is set per run).
	Warper warper.Config
}

// DefaultScale is the full reproduction scale.
func DefaultScale() Scale {
	cfg := warper.DefaultConfig()
	cfg.Hidden = 64
	cfg.Depth = 2
	cfg.NIters = 60
	cfg.PickSize = 400
	return Scale{
		TrainSize:  600,
		StreamSize: 300,
		PeriodSize: 10,
		TestSize:   200,
		Runs:       5,
		Rows:       0,
		Warper:     cfg,
	}
}

// QuickScale is a shrunken configuration for benchmarks and smoke tests.
func QuickScale() Scale {
	s := DefaultScale()
	s.TrainSize = 250
	s.StreamSize = 120
	s.PeriodSize = 10
	s.TestSize = 80
	s.Runs = 1
	s.Rows = 1500
	s.Warper.NIters = 30
	s.Warper.PickSize = 150
	return s
}

// gamma returns the γ used for a scale: the stream size, so per-period
// arrivals always count as "inadequate" (the c2 regime under test).
func (s Scale) gamma() int { return s.StreamSize }

// Table is one printable experiment output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1 renders one-decimal cells, the Δ columns among them. metrics.Speedup
// clamps "the method already sits at the target before its first query" to
// MaxFloat64, which prints as 309 digits; the tables say "max".
func f1(v float64) string {
	if v == math.MaxFloat64 {
		return "max"
	}
	return fmt.Sprintf("%.1f", v)
}
