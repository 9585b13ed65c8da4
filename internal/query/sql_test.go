package query

import "testing"

func TestWhereClauseForms(t *testing.T) {
	s := testSchema() // cols a [0,100], b [-10,10], c [0,4]
	p := NewFullRange(s)
	if got := p.WhereClause(s); got != "TRUE" {
		t.Errorf("full range = %q", got)
	}
	p.SetRange(0, 10, 20)
	if got := p.WhereClause(s); got != "a BETWEEN 10 AND 20" {
		t.Errorf("two-sided = %q", got)
	}
	p.SetRange(0, 0, 20) // at column min → one-sided
	if got := p.WhereClause(s); got != "a <= 20" {
		t.Errorf("one-sided low = %q", got)
	}
	p.SetRange(0, 10, 100) // at column max
	if got := p.WhereClause(s); got != "a >= 10" {
		t.Errorf("one-sided high = %q", got)
	}
	p.SetRange(0, 42, 42)
	if got := p.WhereClause(s); got != "a = 42" {
		t.Errorf("equality = %q", got)
	}
	p.SetRange(1, -5, 5)
	if got := p.WhereClause(s); got != "a = 42 AND b BETWEEN -5 AND 5" {
		t.Errorf("conjunction = %q", got)
	}
}
