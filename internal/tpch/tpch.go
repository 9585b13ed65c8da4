// Package tpch generates scaled TPC-H-shaped Lineitem and Orders tables for
// the end-to-end experiments of §4.2 (Figure 1, Table 9, Figure 9). The
// schema keeps the columns those experiments predicate on — quantities,
// prices, discounts, dates — and the key–foreign-key l_orderkey→o_orderkey
// relationship with realistic fan-out. Row counts are scaled down from
// SF-10 (documented substitution in DESIGN.md); every compared method runs
// against the same tables, so relative plan-quality results survive.
package tpch

import (
	"math"
	"math/rand"

	"warper/internal/dataset"
)

// maxLinesPerOrder bounds the L-per-O fan-out: uniform 1..7, as in TPC-H.
const maxLinesPerOrder = 7

// DB holds the generated tables.
type DB struct {
	Orders   *dataset.Table
	Lineitem *dataset.Table
}

// Column layout constants for predicates and joins.
const (
	// Orders columns.
	OColOrderKey   = 0
	OColCustKey    = 1
	OColTotalPrice = 2
	OColOrderDate  = 3
	// Lineitem columns.
	LColOrderKey      = 0
	LColQuantity      = 1
	LColExtendedPrice = 2
	LColDiscount      = 3
	LColShipDate      = 4
)

// Generate builds a database of n orders and their line items.
func Generate(n int, rng *rand.Rand) *DB {
	okey := make([]float64, n)
	ckey := make([]float64, n)
	price := make([]float64, n)
	odate := make([]float64, n)

	var lkey, qty, eprice, disc, sdate []float64
	for i := 0; i < n; i++ {
		okey[i] = float64(i + 1)
		ckey[i] = float64(rng.Intn(n/10 + 1))
		odate[i] = float64(rng.Intn(2406)) // ~6.6 years of order dates
		lines := 1 + rng.Intn(maxLinesPerOrder)
		var orderTotal float64
		for l := 0; l < lines; l++ {
			q := float64(1 + rng.Intn(50))
			// Extended price correlates with quantity, log-normal unit price.
			unit := math.Exp(float64(rng.NormFloat64()*0.4) + 6.9) // ≈ $1000 median
			ep := q * unit
			d := float64(rng.Intn(11)) / 100 // 0.00..0.10
			ship := odate[i] + float64(1+rng.Intn(120))
			lkey = append(lkey, okey[i])
			qty = append(qty, q)
			eprice = append(eprice, ep)
			disc = append(disc, d)
			sdate = append(sdate, ship)
			orderTotal += float64(ep * (1 - d))
		}
		price[i] = orderTotal
	}

	orders := dataset.NewTable("orders",
		&dataset.Column{Name: "o_orderkey", Type: dataset.Real, Vals: okey},
		&dataset.Column{Name: "o_custkey", Type: dataset.Real, Vals: ckey},
		&dataset.Column{Name: "o_totalprice", Type: dataset.Real, Vals: price},
		&dataset.Column{Name: "o_orderdate", Type: dataset.Date, Vals: odate},
	)
	lineitem := dataset.NewTable("lineitem",
		&dataset.Column{Name: "l_orderkey", Type: dataset.Real, Vals: lkey},
		&dataset.Column{Name: "l_quantity", Type: dataset.Real, Vals: qty},
		&dataset.Column{Name: "l_extendedprice", Type: dataset.Real, Vals: eprice},
		&dataset.Column{Name: "l_discount", Type: dataset.Real, Vals: disc},
		&dataset.Column{Name: "l_shipdate", Type: dataset.Date, Vals: sdate},
	)
	return &DB{Orders: orders, Lineitem: lineitem}
}
