package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// The generators below synthesize tables whose column-type signature,
// correlation structure, skew and distinct-count profile mirror the paper's
// Table 4 datasets. Row counts are scaled down (documented substitution in
// DESIGN.md): the adaptation experiments compare methods on the *same* table,
// so uniformly scaling rows preserves every relative result while keeping
// ground-truth annotation laptop-fast.

// DefaultRows are the scaled row counts used across experiments.
const (
	HiggsRows = 40000
	PRSARows  = 20000
	PokerRows = 30000
)

// Higgs generates a Higgs-like table: 8 real-valued physics features with
// heavy tails and pairwise correlations (the original has 11M rows of
// continuous collider features with distinct counts up to 290K).
func Higgs(rows int, rng *rand.Rand) *Table {
	if rows <= 0 {
		rows = HiggsRows
	}
	cols := make([]*Column, 8)
	names := []string{"lepton_pt", "lepton_eta", "missing_energy", "jet1_pt",
		"jet1_eta", "m_jj", "m_jjj", "m_bb"}
	for i := range cols {
		cols[i] = &Column{Name: names[i], Type: Real, Vals: make([]float64, rows)}
	}
	for r := 0; r < rows; r++ {
		// Two latent event classes (signal/background) induce correlations.
		signal := rng.Float64() < 0.5
		base := rng.NormFloat64()
		shift := 0.0
		if signal {
			shift = 1.2
		}
		// Transverse momenta: log-normal-ish heavy tails.
		leptonPt := math.Exp(float64(0.5*base) + float64(0.4*rng.NormFloat64()) + float64(shift*0.3))
		jetPt := math.Exp(float64(0.5*base) + float64(0.5*rng.NormFloat64()) + float64(shift*0.2))
		missing := math.Abs(2*base + rng.NormFloat64() + shift)
		eta1 := rng.NormFloat64() * 1.2
		eta2 := float64(eta1*0.4) + rng.NormFloat64()
		mjj := 1 + math.Abs(float64(jetPt*0.8)+float64(rng.NormFloat64()*0.7))
		mjjj := mjj + math.Abs(rng.NormFloat64())
		mbb := float64(0.5*leptonPt) + float64(math.Abs(rng.NormFloat64())*1.5) + shift

		vals := []float64{leptonPt, eta1, missing, jetPt, eta2, mjj, mjjj, mbb}
		for i := range cols {
			cols[i].Vals[r] = vals[i]
		}
	}
	return NewTable("higgs", cols...)
}

// PRSA generates a PRSA-like (Beijing air-quality) table: one date column,
// six real measurement columns with strong seasonality and autocorrelation,
// and two categorical columns (station, wind direction) — matching the
// original's 1 date + 6 real + 2 categorical signature.
func PRSA(rows int, rng *rand.Rand) *Table {
	if rows <= 0 {
		rows = PRSARows
	}
	mk := func(name string, t ColType) *Column {
		return &Column{Name: name, Type: t, Vals: make([]float64, rows)}
	}
	day := mk("day", Date)
	pm25 := mk("pm25", Real)
	dewp := mk("dewp", Real)
	temp := mk("temp", Real)
	pres := mk("pres", Real)
	wspd := mk("wspd", Real)
	rain := mk("rain", Real)
	station := mk("station", Categorical)
	winddir := mk("wind_dir", Categorical)

	pollution := 60.0 // AR(1) latent pollution level
	for r := 0; r < rows; r++ {
		d := float64(r) / float64(rows) * 1460 // four simulated years
		season := math.Sin(2 * math.Pi * d / 365)
		pollution = float64(0.95*pollution) + float64(0.05*(80-float64(40*season))) + float64(rng.NormFloat64()*8)
		if pollution < 1 {
			pollution = 1
		}
		day.Vals[r] = math.Floor(d)
		pm25.Vals[r] = pollution * math.Exp(rng.NormFloat64()*0.3)
		temp.Vals[r] = 12 + float64(14*season) + float64(rng.NormFloat64()*4)
		dewp.Vals[r] = temp.Vals[r] - 5 - math.Abs(rng.NormFloat64()*4)
		pres.Vals[r] = 1015 - float64(8*season) + float64(rng.NormFloat64()*4)
		wspd.Vals[r] = math.Abs(rng.NormFloat64() * 12)
		if rng.Float64() < 0.85 {
			rain.Vals[r] = 0
		} else {
			rain.Vals[r] = math.Abs(rng.NormFloat64() * 5)
		}
		station.Vals[r] = float64(rng.Intn(5))
		// Wind direction correlates with season.
		if season > 0 {
			winddir.Vals[r] = float64(rng.Intn(8))
		} else {
			winddir.Vals[r] = float64(rng.Intn(4))
		}
	}
	return NewTable("prsa", day, pm25, dewp, temp, pres, wspd, rain, station, winddir)
}

// Poker generates a Poker-hand-like table: 11 categorical columns — five
// (suit, rank) card pairs plus the hand class — with the original's tiny
// distinct counts (4 suits, 13 ranks, 10 classes).
func Poker(rows int, rng *rand.Rand) *Table {
	if rows <= 0 {
		rows = PokerRows
	}
	cols := make([]*Column, 11)
	for i := 0; i < 5; i++ {
		cols[2*i] = &Column{Name: suitName(i), Type: Categorical, Vals: make([]float64, rows)}
		cols[2*i+1] = &Column{Name: rankName(i), Type: Categorical, Vals: make([]float64, rows)}
	}
	cols[10] = &Column{Name: "class", Type: Categorical, Vals: make([]float64, rows)}
	for r := 0; r < rows; r++ {
		ranks := make([]int, 5)
		suits := make([]int, 5)
		for i := 0; i < 5; i++ {
			suits[i] = rng.Intn(4) + 1
			ranks[i] = rng.Intn(13) + 1
			cols[2*i].Vals[r] = float64(suits[i])
			cols[2*i+1].Vals[r] = float64(ranks[i])
		}
		cols[10].Vals[r] = float64(pokerClass(suits, ranks))
	}
	return NewTable("poker", cols...)
}

func suitName(i int) string { return "s" + string(rune('1'+i)) }
func rankName(i int) string { return "c" + string(rune('1'+i)) }

// pokerClass assigns a coarse hand class (0 = high card .. 9) using a
// simplified ranking; only the distribution shape matters here.
func pokerClass(suits, ranks []int) int {
	counts := map[int]int{}
	for _, r := range ranks {
		counts[r]++
	}
	flush := true
	for _, s := range suits[1:] {
		if s != suits[0] {
			flush = false
			break
		}
	}
	pairs, trips, quads := 0, 0, 0
	for _, c := range counts {
		switch c {
		case 2:
			pairs++
		case 3:
			trips++
		case 4:
			quads++
		}
	}
	switch {
	case quads == 1:
		return 7
	case trips == 1 && pairs == 1:
		return 6
	case flush:
		return 5
	case trips == 1:
		return 3
	case pairs == 2:
		return 2
	case pairs == 1:
		return 1
	default:
		return 0
	}
}

// ByName builds one of the three evaluation tables by dataset name
// ("higgs", "prsa", "poker") with the given row count (rows <= 0 picks the
// generator's default) — the one name → generator mapping the binaries and
// the experiments share.
func ByName(name string, rows int, rng *rand.Rand) (*Table, error) {
	switch name {
	case "higgs":
		return Higgs(rows, rng), nil
	case "prsa":
		return PRSA(rows, rng), nil
	case "poker":
		return Poker(rows, rng), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q (want higgs, prsa or poker)", name)
	}
}
