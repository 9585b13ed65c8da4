// Package imdb generates an IMDB/JOB-like star schema for the join
// cardinality-estimation experiment (Table 7d): a title fact table with two
// key–foreign-key dimension-style tables (movie_companies and movie_info),
// mirroring the join structure MSCN is evaluated on. Synthetic substitution
// documented in DESIGN.md: MSCN consumes only (tables, joins, predicates,
// cardinality) tuples, which this schema exercises identically.
package imdb

import (
	"math"
	"math/rand"

	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
)

// Config sizes the star schema.
type Config struct {
	Titles int // number of title rows (default 4000)
}

// DB holds the generated tables and the catalog describing them to MSCN.
type DB struct {
	Title          *dataset.Table
	MovieCompanies *dataset.Table
	MovieInfo      *dataset.Table
	Catalog        *ce.Catalog
}

// Generate builds the star schema.
func Generate(cfg Config, rng *rand.Rand) *DB {
	n := cfg.Titles
	if n <= 0 {
		n = 4000
	}
	id := make([]float64, n)
	year := make([]float64, n)
	kind := make([]float64, n)
	for i := 0; i < n; i++ {
		id[i] = float64(i)
		// Production years skew recent, like the real IMDB.
		year[i] = 2020 - float64(math.Abs(rng.NormFloat64())*25)
		if year[i] < 1900 {
			year[i] = 1900
		}
		year[i] = math.Floor(year[i])
		kind[i] = float64(rng.Intn(7)) // movie, tv, episode, ...
	}
	title := dataset.NewTable("title",
		&dataset.Column{Name: "id", Type: dataset.Real, Vals: id},
		&dataset.Column{Name: "production_year", Type: dataset.Date, Vals: year},
		&dataset.Column{Name: "kind_id", Type: dataset.Categorical, Vals: kind},
	)

	var mcMovie, mcType []float64
	var miMovie, miType, miVal []float64
	for i := 0; i < n; i++ {
		// Newer titles have more company and info rows (realistic skew).
		recency := (year[i] - 1900) / 120
		companies := 1 + rng.Intn(1+int(3*recency))
		for c := 0; c < companies; c++ {
			mcMovie = append(mcMovie, id[i])
			mcType = append(mcType, float64(rng.Intn(4)))
		}
		infos := rng.Intn(1 + int(5*recency))
		for c := 0; c < infos; c++ {
			miMovie = append(miMovie, id[i])
			miType = append(miType, float64(rng.Intn(20)))
			miVal = append(miVal, rng.Float64()*10)
		}
	}
	mc := dataset.NewTable("movie_companies",
		&dataset.Column{Name: "movie_id", Type: dataset.Real, Vals: mcMovie},
		&dataset.Column{Name: "company_type_id", Type: dataset.Categorical, Vals: mcType},
	)
	mi := dataset.NewTable("movie_info",
		&dataset.Column{Name: "movie_id", Type: dataset.Real, Vals: miMovie},
		&dataset.Column{Name: "info_type_id", Type: dataset.Categorical, Vals: miType},
		&dataset.Column{Name: "info_val", Type: dataset.Real, Vals: miVal},
	)

	cat := ce.NewCatalog(
		query.SchemaOf(title),
		query.SchemaOf(mc),
		query.SchemaOf(mi),
	)
	cat.AddJoin("title", "id", "movie_companies", "movie_id")
	cat.AddJoin("title", "id", "movie_info", "movie_id")
	return &DB{Title: title, MovieCompanies: mc, MovieInfo: mi, Catalog: cat}
}

// Tables returns the three tables for annotator registration.
func (db *DB) Tables() []*dataset.Table {
	return []*dataset.Table{db.Title, db.MovieCompanies, db.MovieInfo}
}

// JoinWorkload draws n random join queries: title joined with one or both
// satellites, with range predicates generated by the given per-table method
// ("w1".."w5"-style bound drawing on constrained columns).
type JoinWorkload struct {
	DB *DB
	// PredStyle selects how per-table bounds are drawn: "uniform" (w1-like)
	// or "sample" (w4-like: min/max of sampled rows).
	PredStyle string
}

// Gen draws one random join query.
func (jw *JoinWorkload) Gen(rng *rand.Rand) *query.JoinQuery {
	db := jw.DB
	var q *query.JoinQuery
	switch rng.Intn(3) {
	case 0:
		q = query.NewJoinQuery("title", "movie_companies").
			AddJoin("title", "id", "movie_companies", "movie_id")
	case 1:
		q = query.NewJoinQuery("title", "movie_info").
			AddJoin("title", "id", "movie_info", "movie_id")
	default:
		q = query.NewJoinQuery("title", "movie_companies", "movie_info").
			AddJoin("title", "id", "movie_companies", "movie_id").
			AddJoin("title", "id", "movie_info", "movie_id")
	}
	for _, name := range q.Tables {
		sch := db.Catalog.Schemas[name]
		p := query.NewFullRange(sch)
		// Constrain one non-key column per table.
		col := 1 + rng.Intn(sch.NumCols()-1)
		lo, hi := jw.drawBounds(name, col, sch, rng)
		p.SetRange(col, lo, hi)
		q.SetPred(name, p.Normalize(sch))
	}
	return q
}

func (jw *JoinWorkload) drawBounds(table string, col int, sch *query.Schema, rng *rand.Rand) (float64, float64) {
	mn, mx := sch.Mins[col], sch.Maxs[col]
	if jw.PredStyle == "sample" {
		tbl := jw.tableOf(table)
		k := 2 + rng.Intn(40)
		lo, hi := math.Inf(1), math.Inf(-1)
		vals := tbl.Cols[col].Vals
		for i := 0; i < k; i++ {
			v := vals[rng.Intn(len(vals))]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi
	}
	a := mn + float64(rng.Float64()*(mx-mn))
	b := mn + float64(rng.Float64()*(mx-mn))
	if a > b {
		a, b = b, a
	}
	return a, b
}

func (jw *JoinWorkload) tableOf(name string) *dataset.Table {
	switch name {
	case "title":
		return jw.DB.Title
	case "movie_companies":
		return jw.DB.MovieCompanies
	default:
		return jw.DB.MovieInfo
	}
}

// Generate draws n join queries.
func (jw *JoinWorkload) Generate(n int, rng *rand.Rand) []*query.JoinQuery {
	out := make([]*query.JoinQuery, n)
	for i := range out {
		out[i] = jw.Gen(rng)
	}
	return out
}
