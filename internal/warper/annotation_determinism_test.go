package warper

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"warper/internal/annotator"
	"warper/internal/dataset"
	"warper/internal/pool"
	"warper/internal/query"
	"warper/internal/workload"
)

// scanSource is the reference annotator.Source: a row-at-a-time scan that
// shares no code with the exact annotator's sorted-column index.
type scanSource struct{ tbl *dataset.Table }

func (s scanSource) Count(ctx context.Context, p query.Predicate) (float64, error) {
	if p.Dim() != s.tbl.NumCols() {
		return 0, fmt.Errorf("scanSource: predicate dim %d vs table cols %d", p.Dim(), s.tbl.NumCols())
	}
	count, row := 0, make([]float64, s.tbl.NumCols())
	for r := 0; r < s.tbl.NumRows(); r++ {
		if p.Matches(s.tbl.Row(r, row)) {
			count++
		}
	}
	return float64(count), ctx.Err()
}

func (s scanSource) AnnotateAll(ctx context.Context, ps []query.Predicate) ([]query.Labeled, error) {
	out := make([]query.Labeled, len(ps))
	for i, p := range ps {
		card, err := s.Count(ctx, p)
		if err != nil {
			return nil, err
		}
		out[i] = query.Labeled{Pred: p, Card: card}
	}
	return out, nil
}

// floatBits appends the bit pattern of every float64 reachable from v,
// unexported fields included: ce.LM keeps its network private, and the
// determinism contract is about M's weights, not about a sample of its
// estimates.
func floatBits(v reflect.Value, seen map[uintptr]bool, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			out = floatBits(v.Elem(), seen, out)
		}
	case reflect.Interface:
		if !v.IsNil() {
			out = floatBits(v.Elem(), seen, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = floatBits(v.Index(i), seen, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(v.Field(i), seen, out)
		}
	}
	return out
}

type poolLabel struct {
	Pred   query.Predicate
	GT     float64
	Stale  bool
	Source pool.Source
}

// TestAnnotationSourceDoesNotChangeSeededRun extends the PR 4 determinism
// contract to annotation: the same seeded three-period run — a workload
// drift (c2), a data drift (c1), and a period over the drifted table — ends
// in the same Reports, the same pool labels and bit-identical M weights
// whether ground truth comes from the indexed annotator or from the
// reference scan.
func TestAnnotationSourceDoesNotChangeSeededRun(t *testing.T) {
	type outcome struct {
		reports []string
		labels  []poolLabel
		weights []uint64
	}
	run := func(reference bool) outcome {
		e := newAdapterEnv(t, adapterCfg(), 500)
		var src annotator.Source = e.ann
		if reference {
			src = scanSource{e.tbl}
			e.ad.SetSource(src)
			for i, lq := range e.train { // set-up labels came through AnnotateAll
				if got, _ := src.Count(context.Background(), lq.Pred); got != lq.Card {
					t.Fatalf("training label %d: indexed %v, scan %v", i, lq.Card, got)
				}
			}
		}
		before := floatBits(reflect.ValueOf(e.ad.M), map[uintptr]bool{}, nil)

		var out outcome
		period := func(arr []Arrival) Report {
			rep := periodOK(t, e.ad, arr)
			rep.Busy, rep.Stages = 0, Report{}.Stages // wall clock
			out.reports = append(out.reports, fmt.Sprintf("%+v", rep))
			return rep
		}
		if rep := period(arrivalsOf(e.newQ[:40], true)); !rep.Detection.Mode.Has(C2) {
			t.Fatalf("period 1 mode = %v, want c2", rep.Detection.Mode)
		}

		rng := rand.New(rand.NewSource(52))
		dataset.UpdateDrift(e.tbl, 0.6, 1.5, rng)
		g1 := workload.New("w1", e.tbl, e.sch, workload.Options{MaxConstrained: 2})
		unlabeled := make([]Arrival, 100)
		for i := range unlabeled {
			unlabeled[i] = Arrival{Pred: g1.Gen(rng)}
		}
		if rep := period(unlabeled); !rep.Detection.Mode.Has(C1) || rep.Annotated == 0 {
			t.Fatalf("period 2 mode = %v annotated = %d, want c1 with annotations", rep.Detection.Mode, rep.Annotated)
		}

		g4 := workload.New("w4", e.tbl, e.sch, workload.Options{MaxConstrained: 2})
		fresh, err := src.AnnotateAll(context.Background(), workload.Generate(g4, 40, rng))
		if err != nil {
			t.Fatal(err)
		}
		period(arrivalsOf(fresh, true))

		for _, pe := range e.ad.Pool.Entries {
			out.labels = append(out.labels, poolLabel{pe.Pred, pe.GT, pe.Stale, pe.Source})
		}
		out.weights = floatBits(reflect.ValueOf(e.ad.M), map[uintptr]bool{}, nil)
		if len(out.weights) < 1000 || reflect.DeepEqual(out.weights, before) {
			t.Fatalf("M exposes %d floats, changed by the run: %v — the weight walk sees no trained network",
				len(out.weights), !reflect.DeepEqual(out.weights, before))
		}
		return out
	}

	indexed, reference := run(false), run(true)
	for i := range indexed.reports {
		if indexed.reports[i] != reference.reports[i] {
			t.Errorf("period %d report differs:\nindexed   %s\nreference %s", i+1, indexed.reports[i], reference.reports[i])
		}
	}
	if !reflect.DeepEqual(indexed.labels, reference.labels) {
		t.Errorf("pool labels differ (%d vs %d entries)", len(indexed.labels), len(reference.labels))
	}
	if !reflect.DeepEqual(indexed.weights, reference.weights) {
		t.Errorf("M weights differ between the indexed and the reference run")
	}
}
