package tpch

import (
	"math/rand"
	"testing"

	"warper/internal/dataset"
)

func TestGenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := Generate(1000, rng)
	if db.Orders.NumRows() != 1000 {
		t.Fatalf("orders = %d", db.Orders.NumRows())
	}
	nl := db.Lineitem.NumRows()
	if nl < 1000 || nl > 7000 {
		t.Fatalf("lineitem rows = %d, want within fan-out bounds", nl)
	}
	if db.Orders.NumCols() != 4 || db.Lineitem.NumCols() != 5 {
		t.Errorf("column counts = %d, %d", db.Orders.NumCols(), db.Lineitem.NumCols())
	}
}

func TestForeignKeysResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := Generate(500, rng)
	keys := map[float64]bool{}
	for _, k := range db.Orders.Cols[OColOrderKey].Vals {
		keys[k] = true
	}
	for _, k := range db.Lineitem.Cols[LColOrderKey].Vals {
		if !keys[k] {
			t.Fatal("dangling l_orderkey")
		}
	}
}

func TestTotalPriceConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := Generate(200, rng)
	// o_totalprice equals the discounted sum of its lineitems.
	sums := map[float64]float64{}
	for r := 0; r < db.Lineitem.NumRows(); r++ {
		k := db.Lineitem.Cols[LColOrderKey].Vals[r]
		ep := db.Lineitem.Cols[LColExtendedPrice].Vals[r]
		d := db.Lineitem.Cols[LColDiscount].Vals[r]
		sums[k] += ep * (1 - d)
	}
	for r := 0; r < db.Orders.NumRows(); r++ {
		k := db.Orders.Cols[OColOrderKey].Vals[r]
		want := sums[k]
		got := db.Orders.Cols[OColTotalPrice].Vals[r]
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("order %v total %v != lineitem sum %v", k, got, want)
		}
	}
}

func TestShipAfterOrderDate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := Generate(300, rng)
	odate := map[float64]float64{}
	for r := 0; r < db.Orders.NumRows(); r++ {
		odate[db.Orders.Cols[OColOrderKey].Vals[r]] = db.Orders.Cols[OColOrderDate].Vals[r]
	}
	for r := 0; r < db.Lineitem.NumRows(); r++ {
		k := db.Lineitem.Cols[LColOrderKey].Vals[r]
		if db.Lineitem.Cols[LColShipDate].Vals[r] <= odate[k] {
			t.Fatal("shipdate not after orderdate")
		}
	}
}

func TestColumnTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := Generate(100, rng)
	if db.Orders.Cols[OColOrderDate].Type != dataset.Date {
		t.Error("o_orderdate should be a date column")
	}
	if db.Lineitem.Cols[LColShipDate].Type != dataset.Date {
		t.Error("l_shipdate should be a date column")
	}
}
