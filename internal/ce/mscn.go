package ce

import (
	"fmt"
	"math/rand"

	"warper/internal/nn"
	"warper/internal/query"
)

// Catalog describes the tables and the key–foreign-key join graph an MSCN
// model can see; it fixes the featurization (table one-hots, join one-hots,
// padded per-table predicate features).
type Catalog struct {
	Order   []string
	Schemas map[string]*query.Schema
	Joins   []query.JoinCond
	maxCols int
}

// NewCatalog builds a catalog over the given schemas (ordered as passed).
func NewCatalog(schemas ...*query.Schema) *Catalog {
	c := &Catalog{Schemas: make(map[string]*query.Schema, len(schemas))}
	for _, s := range schemas {
		c.Order = append(c.Order, s.Table)
		c.Schemas[s.Table] = s
		if s.NumCols() > c.maxCols {
			c.maxCols = s.NumCols()
		}
	}
	return c
}

// AddJoin registers a joinable edge in the catalog.
func (c *Catalog) AddJoin(lt, lc, rt, rc string) *Catalog {
	c.Joins = append(c.Joins, query.JoinCond{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc})
	return c
}

// tableIndex returns the position of a table in the catalog order, or -1.
func (c *Catalog) tableIndex(name string) int {
	for i, t := range c.Order {
		if t == name {
			return i
		}
	}
	return -1
}

// joinIndex matches a join condition against the catalog (either
// orientation), or -1.
func (c *Catalog) joinIndex(jc query.JoinCond) int {
	for i, k := range c.Joins {
		if k == jc {
			return i
		}
		if k.LeftTable == jc.RightTable && k.LeftCol == jc.RightCol &&
			k.RightTable == jc.LeftTable && k.RightCol == jc.LeftCol {
			return i
		}
	}
	return -1
}

// tableFeatDim is the width of one table-set element: a table one-hot plus
// the padded predicate featurization.
func (c *Catalog) tableFeatDim() int { return len(c.Order) + 2*c.maxCols }

// MSCN training-schedule constants (§4.1: batch 32, lr 1e-3).
const (
	mscnHidden         = 32
	mscnTrainEpochs    = 40
	mscnFinetuneEpochs = 8
	mscnBatch          = 32
	mscnRate           = 1e-3
)

// MSCN is a simplified multi-set convolutional network: a per-table MLP
// pooled by averaging, an optional per-join MLP pooled the same way, and an
// output MLP over the concatenated pooled vectors, predicting
// log-cardinality. For single-table use the join branch is dropped,
// matching the paper's "simplified version ... removing the join condition
// and bitmap inputs".
type MSCN struct {
	Catalog *Catalog

	tableNet *nn.Network
	joinNet  *nn.Network // nil when the catalog has no joins
	outNet   *nn.Network
	rng      *rand.Rand
}

// NewMSCN builds an untrained MSCN over a catalog.
func NewMSCN(c *Catalog, seed int64) *MSCN {
	rng := rand.New(rand.NewSource(seed))
	m := &MSCN{Catalog: c, rng: rng}
	m.initNets()
	return m
}

func (m *MSCN) initNets() {
	c := m.Catalog
	m.tableNet = nn.MLP(c.tableFeatDim(), mscnHidden, 1, mscnHidden, m.rng)
	outIn := mscnHidden
	if len(c.Joins) > 0 {
		m.joinNet = nn.MLP(len(c.Joins), mscnHidden, 1, mscnHidden, m.rng)
		outIn += mscnHidden
	}
	m.outNet = nn.MLP(outIn, mscnHidden, 1, 1, m.rng)
}

// featurize builds the set elements for a join query. Queries outside the
// catalog (unknown table, unregistered join) are reported as errors: they
// reach this point from live traffic, so they must not kill the process.
func (m *MSCN) featurize(q *query.JoinQuery) (tables, joins [][]float64, err error) {
	c := m.Catalog
	for _, name := range q.Tables {
		ti := c.tableIndex(name)
		if ti < 0 {
			return nil, nil, fmt.Errorf("ce: mscn query references unknown table %q", name)
		}
		s := c.Schemas[name]
		f := make([]float64, c.tableFeatDim())
		f[ti] = 1
		pred, ok := q.Preds[name]
		if !ok {
			pred = query.NewFullRange(s)
		}
		pf := pred.Featurize(s)
		d := s.NumCols()
		// Pack lows then highs into the padded region.
		copy(f[len(c.Order):len(c.Order)+d], pf[:d])
		copy(f[len(c.Order)+c.maxCols:len(c.Order)+c.maxCols+d], pf[d:])
		tables = append(tables, f)
	}
	for _, jc := range q.Joins {
		ji := c.joinIndex(jc)
		if ji < 0 {
			return nil, nil, fmt.Errorf("ce: mscn query uses unregistered join %s.%s=%s.%s",
				jc.LeftTable, jc.LeftCol, jc.RightTable, jc.RightCol)
		}
		f := make([]float64, len(c.Joins))
		f[ji] = 1
		joins = append(joins, f)
	}
	return tables, joins, nil
}

// mscnBatchCtx carries the flattened set elements and per-query offsets of
// one batched pass: query r owns table-element rows [tOff[r], tOff[r+1]) and
// join-element rows [jOff[r], jOff[r+1]) of the flattened matrices. Backward
// needs the offsets to scatter pooled gradients back per element.
type mscnBatchCtx struct {
	nT, nJ     int
	tOff, jOff []int
	oin        nn.Mat
}

// batchedForward runs a whole slice of queries through the model with three
// batched passes (table branch, join branch, output MLP) instead of one
// network call per set element. Every query's set elements are flattened
// into shared matrices, pooled per query, and fed to the output net as one
// minibatch. Per-row results are byte-identical to the per-query forward:
// the batched kernels reproduce Forward exactly and the pooling loop
// accumulates and divides in the same order.
func (m *MSCN) batchedForward(qs []*query.JoinQuery) (nn.Mat, *mscnBatchCtx, error) {
	b := len(qs)
	c := m.Catalog
	ctx := &mscnBatchCtx{tOff: make([]int, b+1), jOff: make([]int, b+1)}
	var tRows, jRows [][]float64
	for r, q := range qs {
		tables, joins, err := m.featurize(q)
		if err != nil {
			return nn.Mat{}, nil, err
		}
		tRows = append(tRows, tables...)
		jRows = append(jRows, joins...)
		ctx.tOff[r+1] = len(tRows)
		ctx.jOff[r+1] = len(jRows)
	}
	ctx.nT, ctx.nJ = len(tRows), len(jRows)
	width := mscnHidden
	if m.joinNet != nil {
		width = 2 * mscnHidden
	}
	ctx.oin = nn.NewMat(b, width)
	if len(tRows) > 0 {
		tm := nn.NewMat(len(tRows), c.tableFeatDim())
		tm.CopyFromRows(tRows)
		poolMean(m.tableNet.BatchForward(tm), ctx.tOff, ctx.oin, 0)
	}
	if m.joinNet != nil && len(jRows) > 0 {
		jm := nn.NewMat(len(jRows), len(c.Joins))
		jm.CopyFromRows(jRows)
		poolMean(m.joinNet.BatchForward(jm), ctx.jOff, ctx.oin, mscnHidden)
	}
	return m.outNet.BatchForward(ctx.oin), ctx, nil
}

// poolMean writes the average of element rows [off[r], off[r+1]) into
// dst.Row(r)[col:col+elem.Cols] for every query r. Queries with no elements
// keep the zero vector (matching the per-query forward).
func poolMean(elem nn.Mat, off []int, dst nn.Mat, col int) {
	for r := 0; r+1 < len(off); r++ {
		lo, hi := off[r], off[r+1]
		if hi == lo {
			continue
		}
		row := dst.Row(r)[col : col+elem.Cols]
		for e := lo; e < hi; e++ {
			for i, v := range elem.Row(e) {
				row[i] += v
			}
		}
		n := float64(hi - lo)
		for i := range row {
			row[i] /= n
		}
	}
}

// scatterMean distributes the pooled gradient gIn.Row(r)[col:col+H] over the
// element rows [off[r], off[r+1]): mean pooling means each element receives
// g/n.
func scatterMean(gIn nn.Mat, off []int, dst nn.Mat, col int) {
	for r := 0; r+1 < len(off); r++ {
		lo, hi := off[r], off[r+1]
		if hi == lo {
			continue
		}
		n := float64(hi - lo)
		src := gIn.Row(r)[col:]
		for e := lo; e < hi; e++ {
			row := dst.Row(e)
			for i := range row {
				row[i] = src[i] / n
			}
		}
	}
}

// trainMinibatch runs one batched gradient step: batched forwards, the MSE
// gradient at the output, and batched backwards that scatter each query's
// pooled gradient over its set elements.
func (m *MSCN) trainMinibatch(qs []*query.JoinQuery, targets []float64, opt *nn.Adam) error {
	preds, ctx, err := m.batchedForward(qs)
	if err != nil {
		return err
	}
	b := len(qs)
	gOut := nn.NewMat(b, 1)
	for r := 0; r < b; r++ {
		gOut.Row(r)[0] = preds.Row(r)[0] - targets[r] // d(½(p−t)²)/dp
	}
	// Each BatchBackward assigns its network's averaged gradients outright
	// (a branch with no set elements in this batch gets zeros).
	scale := 1 / float64(b)
	gIn := m.outNet.BatchBackward(gOut, scale)
	gT := nn.NewMat(ctx.nT, mscnHidden)
	scatterMean(gIn, ctx.tOff, gT, 0)
	m.tableNet.BatchBackward(gT, scale)
	if m.joinNet != nil {
		gJ := nn.NewMat(ctx.nJ, mscnHidden)
		scatterMean(gIn, ctx.jOff, gJ, mscnHidden)
		m.joinNet.BatchBackward(gJ, scale)
	}
	opt.Step(m.params())
	return nil
}

func (m *MSCN) params() []*nn.Param {
	ps := append([]*nn.Param{}, m.tableNet.Params()...)
	if m.joinNet != nil {
		ps = append(ps, m.joinNet.Params()...)
	}
	return append(ps, m.outNet.Params()...)
}

// trainEpochs runs minibatch MSE training in log space. A query outside the
// catalog aborts the epoch loop with an error (the nets keep whatever state
// the completed batches left behind; callers keep serving a pre-update clone).
func (m *MSCN) trainEpochs(examples []query.LabeledJoin, epochs int) error {
	if len(examples) == 0 {
		return nil
	}
	opt := nn.NewAdam(mscnRate)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	qs := make([]*query.JoinQuery, 0, mscnBatch)
	targets := make([]float64, 0, mscnBatch)
	for e := 0; e < epochs; e++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += mscnBatch {
			end := start + mscnBatch
			if end > len(idx) {
				end = len(idx)
			}
			qs, targets = qs[:0], targets[:0]
			for _, j := range idx[start:end] {
				qs = append(qs, examples[j].Query)
				targets = append(targets, cardToTarget(examples[j].Card))
			}
			if err := m.trainMinibatch(qs, targets, opt); err != nil {
				return err
			}
		}
	}
	return nil
}

// TrainJoin trains on labeled join queries: fresh weights, full epoch budget.
func (m *MSCN) TrainJoin(examples []query.LabeledJoin) error {
	m.initNets()
	return m.trainEpochs(examples, mscnTrainEpochs)
}

// UpdateJoin fine-tunes on labeled join queries for a few epochs.
func (m *MSCN) UpdateJoin(examples []query.LabeledJoin) error {
	return m.trainEpochs(examples, mscnFinetuneEpochs)
}

// EstimateJoin estimates one join query's cardinality: a one-query
// EstimateJoinAll. A query outside the catalog (unknown table, unregistered
// join) is an error.
func (m *MSCN) EstimateJoin(q *query.JoinQuery) (float64, error) {
	var out [1]float64
	err := m.EstimateJoinAll([]*query.JoinQuery{q}, out[:])
	return out[0], err
}

// EstimateJoinAll writes the estimate for qs[i] into out[i], answering all
// queries with three batched forward passes. A length mismatch or a query
// outside the catalog is an error.
func (m *MSCN) EstimateJoinAll(qs []*query.JoinQuery, out []float64) error {
	if len(qs) != len(out) {
		return fmt.Errorf("ce: EstimateJoinAll got %d queries but %d outputs", len(qs), len(out))
	}
	if len(qs) == 0 {
		return nil
	}
	preds, _, err := m.batchedForward(qs)
	if err != nil {
		return err
	}
	for r := range out {
		out[r] = targetToCard(preds.Row(r)[0])
	}
	return nil
}

// singleTableQuery wraps a predicate on the catalog's only table.
func (m *MSCN) singleTableQuery(p query.Predicate) *query.JoinQuery {
	if len(m.Catalog.Order) != 1 {
		// API-misuse guard at the single-table Estimator boundary: a
		// multi-table MSCN is never wired behind the single-table serving
		// path, so this cannot fire on live traffic.
		panic("ce: single-table MSCN API requires a one-table catalog") //lint:allow panicfree single-table API misuse guard
	}
	name := m.Catalog.Order[0]
	q := query.NewJoinQuery(name)
	q.SetPred(name, p)
	return q
}

func (m *MSCN) toJoinExamples(examples []query.Labeled) []query.LabeledJoin {
	out := make([]query.LabeledJoin, len(examples))
	for i, ex := range examples {
		out[i] = query.LabeledJoin{Query: m.singleTableQuery(ex.Pred), Card: ex.Card}
	}
	return out
}

// Train implements Estimator for the single-table configuration.
func (m *MSCN) Train(examples []query.Labeled) error {
	return m.TrainJoin(m.toJoinExamples(examples))
}

// Update implements Estimator for the single-table configuration.
func (m *MSCN) Update(examples []query.Labeled) error {
	return m.UpdateJoin(m.toJoinExamples(examples))
}

// Estimate implements Estimator for the single-table configuration.
//
//lint:allow hotpathalloc MSCN is the heavyweight configuration; the zero-alloc serving envelope covers the LM estimator
func (m *MSCN) Estimate(p query.Predicate) float64 {
	// singleTableQuery always produces an in-catalog query, so EstimateJoin
	// cannot fail here.
	est, _ := m.EstimateJoin(m.singleTableQuery(p))
	return est
}

// EstimateAll implements BatchEstimator for the single-table configuration.
//
//lint:allow hotpathalloc MSCN is the heavyweight configuration; the zero-alloc serving envelope covers the LM estimator
func (m *MSCN) EstimateAll(ps []query.Predicate, out []float64) {
	qs := make([]*query.JoinQuery, len(ps))
	for i := range ps {
		qs[i] = m.singleTableQuery(ps[i])
	}
	// singleTableQuery queries are always in-catalog, so the batched pass
	// fails only on len(out) != len(ps), a broken BatchEstimator contract
	// that no per-query retry could repair: answer zeros.
	if err := m.EstimateJoinAll(qs, out); err != nil {
		clear(out)
	}
}

// Policy implements Estimator: MSCN fine-tunes (§4.1).
func (m *MSCN) Policy() UpdatePolicy { return FineTune }

// Name implements Estimator.
func (m *MSCN) Name() string { return "mscn" }

// Clone implements Estimator.
func (m *MSCN) Clone() Estimator {
	c := &MSCN{Catalog: m.Catalog, rng: rand.New(rand.NewSource(m.rng.Int63()))}
	c.tableNet = m.tableNet.Clone()
	if m.joinNet != nil {
		c.joinNet = m.joinNet.Clone()
	}
	c.outNet = m.outNet.Clone()
	return c
}
