package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"warper/internal/adapt"
	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/drift"
	"warper/internal/metrics"
	"warper/internal/pool"
	"warper/internal/query"
	"warper/internal/warper"
	"warper/internal/workload"
)

// Env is one fully prepared single-table experiment environment: the table,
// a trained CE model, the labeled query stream from the drifted workload and
// a hold-out test set.
type Env struct {
	Tbl   *dataset.Table
	Sch   *query.Schema
	Ann   *annotator.Annotator
	Model ce.Estimator

	Train  []query.Labeled
	Stream []query.Labeled // drifted-workload arrivals, labeled
	Test   []query.Labeled // drifted-workload hold-out

	TrainGen workload.Generator
	NewGen   workload.Generator

	DeltaM  float64
	DeltaJS float64
}

// wkldOpts is the shared predicate-generation option set (1–2 constrained
// columns keeps cardinalities informative at the scaled row counts).
var wkldOpts = workload.Options{MinConstrained: 1, MaxConstrained: 2}

// NewEnv builds an environment: dsName in {higgs, prsa, poker}; trainSpec /
// newSpec in the paper's notation ("w12", "w345", …); model in
// {lm-mlp, lm-gbt, lm-ply, lm-rbf, mscn}.
func NewEnv(dsName, trainSpec, newSpec, model string, sc Scale, seed int64) *Env {
	rng := rand.New(rand.NewSource(seed))
	tbl := datasetByName(dsName, sc.Rows, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	e := &Env{Tbl: tbl, Sch: sch, Ann: ann}
	e.TrainGen = workload.Parse(trainSpec, tbl, sch, wkldOpts)
	e.NewGen = workload.Parse(newSpec, tbl, sch, wkldOpts)

	e.Train = must(ann.AnnotateAll(context.Background(), workload.Generate(e.TrainGen, sc.TrainSize, rng)))
	e.Stream = must(ann.AnnotateAll(context.Background(), workload.Generate(e.NewGen, sc.StreamSize, rng)))
	e.Test = must(ann.AnnotateAll(context.Background(), workload.Generate(e.NewGen, sc.TestSize, rng)))

	e.Model = NewModel(model, sch, seed+1)
	check(e.Model.Train(e.Train))

	// Drift metrics: δ_m (blind accuracy gap vs a model trained exclusively
	// on the new workload) and δ_js (intrinsic distribution distance).
	oracle := NewModel(model, sch, seed+2)
	check(oracle.Train(e.Stream))
	e.DeltaM = metrics.DeltaM(ce.EvalGMQ(e.Model, e.Test), ce.EvalGMQ(oracle, e.Test))
	var trainPreds, newPreds []query.Predicate
	for _, lq := range e.Train {
		trainPreds = append(trainPreds, lq.Pred)
	}
	for _, lq := range e.Stream {
		newPreds = append(newPreds, lq.Pred)
	}
	e.DeltaJS = drift.DeltaJS(newPreds, trainPreds, sch)
	return e
}

// defaultRows are the per-dataset row counts tuned for the default scale
// (Scale.Rows == 0).
var defaultRows = map[string]int{"higgs": 8000, "prsa": 6000, "poker": 8000}

// datasetByName builds a synthetic evaluation table at the experiment scale
// (rows = 0 picks the per-dataset default).
func datasetByName(name string, rows int, rng *rand.Rand) *dataset.Table {
	if rows == 0 {
		rows = defaultRows[name]
	}
	return must(dataset.ByName(name, rows, rng))
}

// NewModel builds an untrained CE model by name.
func NewModel(name string, sch *query.Schema, seed int64) ce.Estimator {
	if name == "mscn" {
		return ce.NewMSCN(ce.NewCatalog(sch), seed)
	}
	v, err := ce.ParseLMVariant(name)
	if err != nil {
		panic("experiments: unknown model " + name)
	}
	return ce.NewLM(v, sch, seed)
}

// NewWarperAdapter builds an Adapter over a clone of the env's model (so
// methods compare from identical starting weights).
func (e *Env) NewWarperAdapter(sc Scale, seed int64) *warper.Adapter {
	cfg := sc.Warper
	cfg.Seed = seed
	cfg.Gamma = sc.gamma()
	return must(warper.New(cfg, e.Model.Clone(), e.Sch, e.Ann, e.Train))
}

// Methods builds the named adaptation methods over clones of the env model.
// Recognized names: FT, MIX, AUG, HEM, Warper, Warper:rnd, Warper:entropy,
// Warper:augGen.
func (e *Env) Methods(names []string, sc Scale, seed int64) []adapt.Method {
	var out []adapt.Method
	for i, name := range names {
		s := seed + int64(i)*1000
		switch name {
		case "FT":
			out = append(out, adapt.NewFT(e.Model.Clone(), e.Train))
		case "MIX":
			out = append(out, adapt.NewMIX(e.Model.Clone(), e.Train, s))
		case "AUG":
			out = append(out, adapt.NewAUG(e.Model.Clone(), e.Sch, e.Ann, e.Train, s))
		case "HEM":
			out = append(out, adapt.NewHEM(e.Model.Clone(), e.Sch, e.Ann, e.Train, s))
		case "Warper":
			out = append(out, adapt.NewWarper(e.NewWarperAdapter(sc, s)))
		case "Warper:rnd":
			ad := e.NewWarperAdapter(sc, s)
			ad.Picker.Strategy = warper.StrategyRandom
			out = append(out, named{adapt.NewWarper(ad), "Warper:rnd"})
		case "Warper:entropy":
			ad := e.NewWarperAdapter(sc, s)
			ad.Picker.Strategy = warper.StrategyEntropy
			out = append(out, named{adapt.NewWarper(ad), "Warper:entropy"})
		case "Warper:augGen":
			ad := e.NewWarperAdapter(sc, s)
			ad.GenFunc = e.augGenFunc(s)
			out = append(out, named{adapt.NewWarper(ad), "Warper:augGen"})
		default:
			panic(fmt.Sprintf("experiments: unknown method %q", name))
		}
	}
	return out
}

// augGenFunc is the Table 10 "𝔾→AUG" ablation: replace the GAN generator
// with AUG's Gaussian noise (adapt.Noisy) around the newly arrived queries
// in the pool.
func (e *Env) augGenFunc(seed int64) func(p *pool.Pool, n int) []query.Predicate {
	rng := rand.New(rand.NewSource(seed))
	return func(p *pool.Pool, n int) []query.Predicate {
		newEntries := p.BySource(pool.SrcNew)
		if len(newEntries) == 0 || n <= 0 {
			return nil
		}
		out := make([]query.Predicate, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, adapt.Noisy(newEntries[rng.Intn(len(newEntries))].Pred, e.Sch, rng))
		}
		return out
	}
}

// named overrides a method's display name.
type named struct {
	adapt.Method
	name string
}

func (n named) Name() string { return n.name }
