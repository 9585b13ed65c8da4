package annotator

import (
	"context"
	"math/rand"
	"testing"

	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

func smallTable() *dataset.Table {
	return dataset.NewTable("t",
		&dataset.Column{Name: "a", Type: dataset.Real, Vals: []float64{1, 2, 3, 4, 5}},
		&dataset.Column{Name: "b", Type: dataset.Real, Vals: []float64{10, 20, 30, 40, 50}},
	)
}

func TestCountExact(t *testing.T) {
	tbl := smallTable()
	a := New(tbl)
	s := query.SchemaOf(tbl)

	full := query.NewFullRange(s)
	if got := countOK(t, a, full); got != 5 {
		t.Errorf("full count = %v, want 5", got)
	}
	p := query.NewFullRange(s)
	p.SetRange(0, 2, 4)
	if got := countOK(t, a, p); got != 3 {
		t.Errorf("count [2,4] = %v, want 3", got)
	}
	p2 := query.NewFullRange(s)
	p2.SetRange(0, 2, 4)
	p2.SetRange(1, 35, 100)
	if got := countOK(t, a, p2); got != 1 {
		t.Errorf("conjunctive count = %v, want 1", got)
	}
	empty := query.NewFullRange(s)
	empty.SetRange(0, 1.1, 1.9)
	if got := countOK(t, a, empty); got != 0 {
		t.Errorf("empty count = %v, want 0", got)
	}
}

func TestCountInclusiveBounds(t *testing.T) {
	tbl := smallTable()
	a := New(tbl)
	s := query.SchemaOf(tbl)
	p := query.NewFullRange(s)
	p.SetEquals(0, 3)
	if got := countOK(t, a, p); got != 1 {
		t.Errorf("equality count = %v, want 1", got)
	}
}

func TestAnnotateAllAgreesWithCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := dataset.PRSA(1500, rng)
	s := query.SchemaOf(tbl)
	g := workload.New("w3", tbl, s, workload.Options{})
	preds := workload.Generate(g, 30, rng)

	a := New(tbl)
	batch, err := a.AnnotateAll(context.Background(), preds)
	if err != nil {
		t.Fatalf("AnnotateAll: %v", err)
	}
	b := New(tbl)
	for i, lp := range batch {
		if got := countOK(t, b, preds[i]); got != lp.Card {
			t.Fatalf("pred %d: batch=%v single=%v", i, lp.Card, got)
		}
	}
}

func TestCountDimMismatchError(t *testing.T) {
	a := New(smallTable())
	if _, err := a.Count(context.Background(), query.Predicate{Lows: []float64{0}, Highs: []float64{1}}); err == nil {
		t.Fatal("expected error for dimension mismatch")
	}
}

func joinFixture() (*dataset.Table, *dataset.Table) {
	// orders: key 1..4; lineitem references orders with known fan-out.
	orders := dataset.NewTable("orders",
		&dataset.Column{Name: "okey", Type: dataset.Real, Vals: []float64{1, 2, 3, 4}},
		&dataset.Column{Name: "total", Type: dataset.Real, Vals: []float64{100, 200, 300, 400}},
	)
	lineitem := dataset.NewTable("lineitem",
		&dataset.Column{Name: "okey", Type: dataset.Real, Vals: []float64{1, 1, 2, 3, 3, 3}},
		&dataset.Column{Name: "qty", Type: dataset.Real, Vals: []float64{5, 6, 7, 8, 9, 10}},
	)
	return orders, lineitem
}

func TestJoinCountNoPredicates(t *testing.T) {
	orders, lineitem := joinFixture()
	ja := NewJoin(orders, lineitem)
	q := query.NewJoinQuery("lineitem", "orders").AddJoin("lineitem", "okey", "orders", "okey")
	// Every lineitem row matches exactly one order: 6 results.
	if got := joinCountOK(t, ja, q); got != 6 {
		t.Errorf("join count = %v, want 6", got)
	}
}

func TestJoinCountWithPredicates(t *testing.T) {
	orders, lineitem := joinFixture()
	ja := NewJoin(orders, lineitem)
	so := query.SchemaOf(orders)
	sl := query.SchemaOf(lineitem)

	q := query.NewJoinQuery("lineitem", "orders").AddJoin("lineitem", "okey", "orders", "okey")
	po := query.NewFullRange(so)
	po.SetRange(1, 250, 500) // orders 3 and 4
	q.SetPred("orders", po)
	// Lineitems for order 3: rows with okey=3 → 3 rows; order 4 has none.
	if got := joinCountOK(t, ja, q); got != 3 {
		t.Errorf("join count = %v, want 3", got)
	}

	pl := query.NewFullRange(sl)
	pl.SetRange(1, 9, 100) // qty in {9, 10}: two rows, both okey=3
	q.SetPred("lineitem", pl)
	if got := joinCountOK(t, ja, q); got != 2 {
		t.Errorf("join count = %v, want 2", got)
	}
}

func TestJoinCountThreeWay(t *testing.T) {
	orders, lineitem := joinFixture()
	cust := dataset.NewTable("cust",
		&dataset.Column{Name: "ckey", Type: dataset.Real, Vals: []float64{10, 20}},
	)
	// Attach a ckey column to orders: orders 1,2 → cust 10; 3,4 → cust 20.
	orders.Cols = append(orders.Cols, &dataset.Column{
		Name: "ckey", Type: dataset.Real, Vals: []float64{10, 10, 20, 20},
	})
	ja := NewJoin(orders, lineitem, cust)
	q := query.NewJoinQuery("lineitem", "orders", "cust").
		AddJoin("lineitem", "okey", "orders", "okey").
		AddJoin("orders", "ckey", "cust", "ckey")
	// All 6 lineitems join through to a customer.
	if got := joinCountOK(t, ja, q); got != 6 {
		t.Errorf("3-way join count = %v, want 6", got)
	}
}

func TestJoinDisconnectedError(t *testing.T) {
	orders, lineitem := joinFixture()
	ja := NewJoin(orders, lineitem)
	q := query.NewJoinQuery("lineitem", "orders") // no join conditions
	if _, err := ja.Count(context.Background(), q); err == nil {
		t.Fatal("expected error for disconnected join")
	}
}

func TestJoinUnknownTableError(t *testing.T) {
	orders, _ := joinFixture()
	ja := NewJoin(orders)
	q := query.NewJoinQuery("nope")
	if _, err := ja.Count(context.Background(), q); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestJoinAnnotateAll(t *testing.T) {
	orders, lineitem := joinFixture()
	ja := NewJoin(orders, lineitem)
	q := query.NewJoinQuery("lineitem", "orders").AddJoin("lineitem", "okey", "orders", "okey")
	out, err := ja.AnnotateAll(context.Background(), []*query.JoinQuery{q, q})
	if err != nil {
		t.Fatalf("AnnotateAll: %v", err)
	}
	if len(out) != 2 || out[0].Card != 6 || out[1].Card != 6 {
		t.Errorf("AnnotateAll = %+v", out)
	}
}

// countOK unwraps Count for well-formed test predicates.
func countOK(t *testing.T, a *Annotator, p query.Predicate) float64 {
	t.Helper()
	c, err := a.Count(context.Background(), p)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return c
}

// joinCountOK unwraps JoinAnnotator.Count for well-formed test queries.
func joinCountOK(t *testing.T, ja *JoinAnnotator, q *query.JoinQuery) float64 {
	t.Helper()
	c, err := ja.Count(context.Background(), q)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return c
}
