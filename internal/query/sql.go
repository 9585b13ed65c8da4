package query

import (
	"fmt"
	"strings"
)

// SQL rendering turns predicates back into the WHERE clauses they model —
// how /status shows an operator the predicates behind its exemplars.

// WhereClause renders the predicate as a SQL boolean expression against the
// schema's column names. Unconstrained columns (spanning the full range) are
// omitted; equality collapses to `col = v`; one-sided ranges render a single
// comparison. A predicate with no constrained columns renders as "TRUE".
func (p Predicate) WhereClause(s *Schema) string {
	var parts []string
	for i := range p.Lows {
		lo, hi := p.Lows[i], p.Highs[i]
		atMin := lo <= s.Mins[i]
		atMax := hi >= s.Maxs[i]
		name := s.Names[i]
		switch {
		case atMin && atMax:
			// Unconstrained.
		case lo == hi:
			parts = append(parts, fmt.Sprintf("%s = %s", name, fnum(lo)))
		case atMin:
			parts = append(parts, fmt.Sprintf("%s <= %s", name, fnum(hi)))
		case atMax:
			parts = append(parts, fmt.Sprintf("%s >= %s", name, fnum(lo)))
		default:
			parts = append(parts, fmt.Sprintf("%s BETWEEN %s AND %s", name, fnum(lo), fnum(hi)))
		}
	}
	if len(parts) == 0 {
		return "TRUE"
	}
	return strings.Join(parts, " AND ")
}

// fnum formats a float without trailing zeros.
func fnum(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
