// Package pool implements Warper's query pool (Figure 4): an in-memory
// collection of tuples (q, gt, z, l) where q is a predicate, gt its (possibly
// missing) ground-truth cardinality, z the encoder embedding and l the source
// of the predicate (train / new / gen).
package pool

import (
	"warper/internal/query"
)

// Source labels where a predicate came from.
type Source int

// Predicate sources (the paper's l values).
const (
	SrcTrain Source = iota // from the original training workload 𝕀train
	SrcNew                 // newly arrived from the drifted workload
	SrcGen                 // synthesized by the generator 𝔾
)

// String returns the paper's label for the source.
func (s Source) String() string {
	switch s {
	case SrcTrain:
		return "train"
	case SrcNew:
		return "new"
	case SrcGen:
		return "gen"
	default:
		return "unknown"
	}
}

// NoGT marks a missing ground-truth label (the paper stores gt=-1).
const NoGT = -1

// Entry is one pool record.
type Entry struct {
	Pred query.Predicate
	GT   float64 // NoGT when unknown
	// Z is the embedding 𝔼 last gave the entry. Generation refreshes it
	// on the new entries it seeds from, and nothing else reads it.
	Z []float64
	// Source is the origin l.
	Source Source
	// Stale marks entries whose GT predates a data drift and must be
	// re-annotated before use (c1 handling).
	Stale bool
}

// HasGT reports whether the entry carries a usable, fresh label.
func (e *Entry) HasGT() bool { return e.GT >= 0 && !e.Stale }

// Pool is the query pool.
type Pool struct {
	Entries []*Entry
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// InitFromTraining seeds the pool from the original training workload
// 𝕀train, as §3.2 prescribes (l = train, empty z).
func InitFromTraining(train []query.Labeled) *Pool {
	p := New()
	for _, lq := range train {
		p.Entries = append(p.Entries, &Entry{Pred: lq.Pred, GT: lq.Card, Source: SrcTrain})
	}
	return p
}

// Add appends an entry and returns it.
func (p *Pool) Add(e *Entry) *Entry {
	p.Entries = append(p.Entries, e)
	return e
}

// AddNew appends a newly arrived query, with or without a label.
func (p *Pool) AddNew(pred query.Predicate, gt float64, hasGT bool) *Entry {
	e := &Entry{Pred: pred, GT: NoGT, Source: SrcNew}
	if hasGT {
		e.GT = gt
	}
	return p.Add(e)
}

// AddGenerated appends a synthesized query (gt unknown).
func (p *Pool) AddGenerated(pred query.Predicate) *Entry {
	return p.Add(&Entry{Pred: pred, GT: NoGT, Source: SrcGen})
}

// Len returns the number of entries.
func (p *Pool) Len() int { return len(p.Entries) }

// BySource returns the entries with the given source.
func (p *Pool) BySource(s Source) []*Entry {
	var out []*Entry
	for _, e := range p.Entries {
		if e.Source == s {
			out = append(out, e)
		}
	}
	return out
}

// Labeled returns all entries with fresh ground truth as training examples.
func (p *Pool) Labeled() []query.Labeled {
	var out []query.Labeled
	for _, e := range p.Entries {
		if e.HasGT() {
			out = append(out, query.Labeled{Pred: e.Pred, Card: e.GT})
		}
	}
	return out
}

// LabeledBySource returns labeled examples restricted to the given sources.
func (p *Pool) LabeledBySource(sources ...Source) []query.Labeled {
	want := map[Source]bool{}
	for _, s := range sources {
		want[s] = true
	}
	var out []query.Labeled
	for _, e := range p.Entries {
		if e.HasGT() && want[e.Source] {
			out = append(out, query.Labeled{Pred: e.Pred, Card: e.GT})
		}
	}
	return out
}

// Unlabeled returns entries lacking fresh ground truth, restricted to the
// given sources (all sources if none specified).
func (p *Pool) Unlabeled(sources ...Source) []*Entry {
	want := map[Source]bool{}
	for _, s := range sources {
		want[s] = true
	}
	var out []*Entry
	for _, e := range p.Entries {
		if e.HasGT() {
			continue
		}
		if len(want) == 0 || want[e.Source] {
			out = append(out, e)
		}
	}
	return out
}

// MarkAllStale flags every labeled entry's GT as outdated. Called when a
// data drift invalidates cardinality labels (§3.1: "in data drifts, the
// cardinality labels for all queries ... may be outdated").
func (p *Pool) MarkAllStale() {
	for _, e := range p.Entries {
		if e.GT >= 0 {
			e.Stale = true
		}
	}
}

// CountLabeled returns how many entries carry fresh ground truth.
func (p *Pool) CountLabeled() int {
	n := 0
	for _, e := range p.Entries {
		if e.HasGT() {
			n++
		}
	}
	return n
}

// TrimGenerated drops generated entries beyond the keep count, bounding
// pool growth across many adaptation periods.
//
// Eviction is label-aware: annotated generated entries carry ground truth
// the cost ledger paid real annotation budget for, so unlabeled and stale
// generated entries (oldest first) are evicted before any fresh-labeled one.
// Only when the unlabeled/stale supply is exhausted are labeled generated
// entries dropped, again oldest first.
func (p *Pool) TrimGenerated(keep int) {
	nGen := 0
	for _, e := range p.Entries {
		if e.Source == SrcGen {
			nGen++
		}
	}
	need := nGen - keep
	if need <= 0 {
		return
	}
	drop := make(map[*Entry]bool, need)
	// First pass: unlabeled or stale generated entries, oldest first.
	for _, e := range p.Entries {
		if need == 0 {
			break
		}
		if e.Source == SrcGen && !e.HasGT() {
			drop[e] = true
			need--
		}
	}
	// Second pass: labeled generated entries, oldest first, only if needed.
	for _, e := range p.Entries {
		if need == 0 {
			break
		}
		if e.Source == SrcGen && !drop[e] {
			drop[e] = true
			need--
		}
	}
	kept := p.Entries[:0]
	for _, e := range p.Entries {
		if !drop[e] {
			kept = append(kept, e)
		}
	}
	p.Entries = kept
}
