package annotator

import (
	"context"
	"fmt"

	"warper/internal/dataset"
	"warper/internal/query"
)

// JoinAnnotator answers count(*) for key–foreign-key join queries over a
// registry of tables, executing left-deep hash joins over the filtered
// inputs. It backs the ground truth for the MSCN join experiments (§4.1.2).
type JoinAnnotator struct {
	tables map[string]*dataset.Table
}

// NewJoin builds a join annotator over the given tables.
func NewJoin(tables ...*dataset.Table) *JoinAnnotator {
	m := make(map[string]*dataset.Table, len(tables))
	for _, t := range tables {
		m[t.Name] = t
	}
	return &JoinAnnotator{tables: m}
}

// Table returns a registered table by name, or nil.
func (ja *JoinAnnotator) Table(name string) *dataset.Table { return ja.tables[name] }

// Count executes the join query and returns its exact cardinality.
//
// The plan is left-deep in the order of q.Tables: filtered rows of the first
// table seed the working set; each later table is hash-joined in on the join
// conditions that connect it to tables already joined. Every table in
// q.Tables must be connected by the time it is reached; malformed queries
// (unknown table, dimension mismatch, disconnected join) are reported as
// errors rather than panics. Cancelling ctx stops the join between row
// batches.
func (ja *JoinAnnotator) Count(ctx context.Context, q *query.JoinQuery) (float64, error) {
	if len(q.Tables) == 0 {
		return 0, nil
	}
	// Working set: multiset of join-relevant column values per joined table.
	// We track, for each intermediate result row, the values of every column
	// that a *future* join condition needs.
	type rowRef struct {
		vals map[string]float64 // "table.col" → value
	}

	neededCols := make(map[string]map[string]bool) // table → cols needed by joins
	for _, jc := range q.Joins {
		addNeed(neededCols, jc.LeftTable, jc.LeftCol)
		addNeed(neededCols, jc.RightTable, jc.RightCol)
	}

	filtered := func(name string) ([]rowRef, error) {
		t := ja.tables[name]
		if t == nil {
			return nil, fmt.Errorf("annotator: unknown table %q", name)
		}
		pred, hasPred := q.Preds[name]
		if hasPred && pred.Dim() != t.NumCols() {
			return nil, fmt.Errorf("annotator: predicate dim %d vs table %q cols %d", pred.Dim(), name, t.NumCols())
		}
		var out []rowRef
		row := make([]float64, t.NumCols())
		for r := 0; r < t.NumRows(); r++ {
			if r%ctxCheckRows == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			t.Row(r, row)
			if hasPred && !pred.Matches(row) {
				continue
			}
			ref := rowRef{vals: map[string]float64{}}
			for col := range neededCols[name] {
				ref.vals[name+"."+col] = row[t.ColIndex(col)]
			}
			out = append(out, ref)
		}
		return out, nil
	}

	joined := map[string]bool{q.Tables[0]: true}
	current, err := filtered(q.Tables[0])
	if err != nil {
		return 0, err
	}

	for _, name := range q.Tables[1:] {
		// Find the join conditions connecting `name` to the joined set.
		var conds []query.JoinCond
		for _, jc := range q.Joins {
			if jc.LeftTable == name && joined[jc.RightTable] ||
				jc.RightTable == name && joined[jc.LeftTable] {
				conds = append(conds, jc)
			}
		}
		if len(conds) == 0 {
			return 0, fmt.Errorf("annotator: table %q not connected to the join so far", name)
		}
		newRows, err := filtered(name)
		if err != nil {
			return 0, err
		}
		// Hash the new table's rows by the composite key of its join cols.
		type key string
		buildKey := func(ref rowRef, fromNew bool) key {
			k := ""
			for _, jc := range conds {
				var tbl, col string
				if fromNew == (jc.LeftTable == name) {
					tbl, col = jc.LeftTable, jc.LeftCol
				} else {
					tbl, col = jc.RightTable, jc.RightCol
				}
				k += fmt.Sprintf("%g|", ref.vals[tbl+"."+col])
			}
			return key(k)
		}
		hash := make(map[key][]rowRef, len(newRows))
		for _, ref := range newRows {
			k := buildKey(ref, true)
			hash[k] = append(hash[k], ref)
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var next []rowRef
		for _, ref := range current {
			k := buildKey(ref, false)
			for _, m := range hash[k] {
				merged := rowRef{vals: map[string]float64{}}
				for c, v := range ref.vals {
					merged.vals[c] = v
				}
				for c, v := range m.vals {
					merged.vals[c] = v
				}
				next = append(next, merged)
			}
		}
		current = next
		joined[name] = true
	}
	return float64(len(current)), nil
}

// AnnotateAll labels a batch of join queries. The first malformed query or
// a cancelled context aborts the batch.
func (ja *JoinAnnotator) AnnotateAll(ctx context.Context, qs []*query.JoinQuery) ([]query.LabeledJoin, error) {
	out := make([]query.LabeledJoin, len(qs))
	for i, q := range qs {
		card, err := ja.Count(ctx, q)
		if err != nil {
			return nil, err
		}
		out[i] = query.LabeledJoin{Query: q, Card: card}
	}
	return out, nil
}

func addNeed(m map[string]map[string]bool, table, col string) {
	if m[table] == nil {
		m[table] = map[string]bool{}
	}
	m[table][col] = true
}
