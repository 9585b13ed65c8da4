package experiments

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"warper/internal/adapt"
	"warper/internal/dataset"
	"warper/internal/warper"
	"warper/internal/workload"
)

// Paper fidelity as a gate (ROADMAP item 1a, first slice). The golden bits,
// the smoke digests and adapt_gmq say that nothing changed; these tests say
// that what the tree computes is still the paper's result. Everything runs
// at QuickScale, as a median over seeds 1–3, in a few seconds.

var fidelitySeeds = []int64{1, 2, 3}

// TestFidelityFig6Ordering: under workload drift c2 (w12 → w345, LM-mlp)
// Warper ends the stream at or below fine-tuning and below MIX and HEM
// (Figure 6) on PRSA and Poker, and wherever the median δ_m exceeds 0.5 its
// median Δ1 speedup over FT is at least 1 (ROADMAP item 1a). Higgs is
// deliberately not asserted: at this scale its δ_m is 0–0.3, and the
// paper's own caveat covers that regime — "when δ_m is small the model is
// already accurate on the new workload, and there is little for any
// adaptation method to gain" (§4.2, the Table 7 rows with δ_m ≈ 0.2).
func TestFidelityFig6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	for _, ds := range []string{"prsa", "poker"} {
		final := map[string][]float64{}
		var deltaM, d5, d8, d1 []float64
		for _, seed := range fidelitySeeds {
			res := RunC2(ds, "w12", "w345", "lm-mlp", fig6Methods, QuickScale(), seed)
			for _, m := range fig6Methods {
				c := res.Curves[m]
				final[m] = append(final[m], c.GMQ[c.Len()-1])
			}
			s5, s8, s1 := res.Speedups("Warper")
			deltaM, d5, d8, d1 = append(deltaM, res.DeltaM), append(d5, s5), append(d8, s8), append(d1, s1)
		}
		t.Logf("%s per seed: δm %.2f Δ.5 %.2f Δ.8 %.2f Δ1 %.2f", ds, deltaM, d5, d8, d1)
		// Table 7a: where the drift leaves a real gap (δ_m > 0.5), Warper
		// reaches FT's final accuracy no later than FT does.
		if dm, s1 := median(deltaM), median(d1); dm > 0.5 && s1 < 1 {
			t.Errorf("%s: median Δ1 %.2f < 1 at median δm %.2f", ds, s1, dm)
		}
		w := median(final["Warper"])
		t.Logf("%s final GMQ, median of seeds %v: FT %.3f MIX %.3f AUG %.3f HEM %.3f Warper %.3f",
			ds, fidelitySeeds, median(final["FT"]), median(final["MIX"]), median(final["AUG"]), median(final["HEM"]), w)
		if ft := median(final["FT"]); w > ft {
			t.Errorf("%s: Warper ends at GMQ %.3f, above FT's %.3f", ds, w, ft)
		}
		for _, m := range []string{"MIX", "HEM"} {
			if other := median(final[m]); w >= other {
				t.Errorf("%s: Warper ends at GMQ %.3f, not below %s's %.3f", ds, w, m, other)
			}
		}
	}
}

// TestFidelityDetectorClassifies drives the detector through the adapter's
// public surface on the four drift constructions of §3.1: c2 scarce labeled
// arrivals of a new workload, c3 the same workload unlabeled, c4 labeled and
// adequate (n_a ≥ γ), c1 the table sorted and truncated under an unchanged
// workload. The workload drift is w1 → w4, the pair detector_test.go's
// fixtures use: without labels only δ_js speaks, and at this scale the
// w12 → w345 drift of Figure 6 stays under the detector's δ_js threshold
// once the noise floor is subtracted (40 unlabeled arrivals read as "none"
// at all three seeds).
func TestFidelityDetectorClassifies(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	sc := QuickScale()
	for _, seed := range fidelitySeeds {
		env := NewEnv("prsa", "w1", "w4", "lm-mlp", sc, seed)
		adapter := func(gamma int) *warper.Adapter {
			cfg := sc.Warper
			cfg.Seed = seed + 17
			cfg.Gamma = gamma
			return must(warper.New(cfg, env.Model.Clone(), env.Sch, env.Ann, env.Train))
		}
		labeled := adapt.ArrivalsOf(env.Stream[:60], true)
		for _, c := range []struct {
			name     string
			gamma    int
			arrivals []warper.Arrival
			want     warper.Mode
		}{
			{"c2", sc.gamma(), labeled, warper.C2},
			{"c3", 20, adapt.ArrivalsOf(env.Stream[:60], false), warper.C3},
			{"c4", 20, labeled, warper.C4},
		} {
			det := must(adapter(c.gamma).Period(c.arrivals)).Detection
			if det.Mode != c.want {
				t.Errorf("seed %d %s: mode = %v (δm %.2f, δjs %.2f, nt %d, na %d), want %v",
					seed, c.name, det.Mode, det.DeltaM, det.DeltaJS, det.NT, det.NA, c.want)
			}
		}
		// c1 last: it rewrites the table the other three annotate against.
		ad := adapter(sc.gamma())
		dataset.SortTruncateHalf(env.Tbl, 0)
		same := workload.Generate(env.TrainGen, 10, rand.New(rand.NewSource(seed)))
		det := must(ad.Period(adapt.ArrivalsOf(must(env.Ann.AnnotateAll(context.Background(), same)), true))).Detection
		if !det.Mode.Has(warper.C1) || !det.FreshC1 {
			t.Errorf("seed %d c1: mode = %v (fresh %v), want a fresh c1", seed, det.Mode, det.FreshC1)
		}
	}
}

// table7cDelta1Floor is the c3 row's floor on Warper's median Δ1 over FT.
// PRSA and Higgs hold the paper's Δ1 ≥ 1. Poker's 0 is a known-bad floor,
// not a target: its detector calls 3 to 10 of the 12 drifting periods "none"
// (ten unlabeled arrivals rarely clear the δ_js noise floor), Warper spends
// 10 to 45 of FT's 60 annotations, and on seeds 2 and 3 it never reaches
// FT's final GMQ. The job is to raise it to 1.
var table7cDelta1Floor = map[string]float64{"prsa": 1, "poker": 0, "higgs": 1}

// TestFidelityTable7c: Table 7c compares equal budgets over arrivals that
// carry no labels. On both rows FT spends annotations and Warper spends no
// more than FT; on the c3 row some period is classified c3 and none c2, so
// what runs there is Warper's stratified picker; and on that row Warper's median Δ1 over FT
// holds table7cDelta1Floor.
func TestFidelityTable7c(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	for _, ds := range datasets {
		var d1 []float64
		for _, seed := range fidelitySeeds {
			for _, row := range []struct{ cs, trainSpec, newSpec string }{
				{"c1", "w12345", "w12345"},
				{"c3", "w12", "w345"},
			} {
				res := runStarved(ds, row.trainSpec, row.newSpec, QuickScale(), seed)
				ft, w := res.Annotations["FT"], res.Annotations["Warper"]
				_, _, s1 := res.Speedups("Warper")
				t.Logf("%s %s seed %d: δm %.2f annotations FT %.0f Warper %.0f, Δ1 %.1f, Warper's periods %v",
					ds, row.cs, seed, res.DeltaM, ft, w, s1, res.Modes)
				if ft <= 0 || w > ft {
					t.Errorf("%s %s seed %d: FT spent %.0f annotations and Warper %.0f, want FT > 0 and Warper ≤ FT", ds, row.cs, seed, ft, w)
				}
				if row.cs != "c3" {
					continue
				}
				d1 = append(d1, s1)
				if res.Modes[warper.C3] == 0 {
					t.Errorf("%s c3 seed %d: no period classified c3 (%v)", ds, seed, res.Modes)
				}
				for mode, n := range res.Modes {
					if mode.Has(warper.C2) {
						t.Errorf("%s c3 seed %d: %d periods classified %v", ds, seed, n, mode)
					}
				}
			}
		}
		if got := median(d1); got < table7cDelta1Floor[ds] {
			t.Errorf("%s c3: median Δ1 %.2f (per seed %.1f) below the floor %.0f", ds, got, d1, table7cDelta1Floor[ds])
		}
	}
}

// fig7SpreadFloor is a known-bad floor, not a target. Figure 7's claim is
// that generated queries cover the new workload's region of predicate space;
// here the generated cloud sits on the right centroid with about a tenth
// of the new workload's spread (ROADMAP item 2: 𝔾 is near mode-collapsed).
// The floor sits below every median the tree has read (0.035 while 𝔾
// trained against a discriminator), so the collapse cannot get worse
// unnoticed; item 2's job is to raise it toward 1.
const fig7SpreadFloor = 0.025

func TestFidelityFig7SpreadRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	var ratios []float64
	for _, seed := range fidelitySeeds {
		spread := map[string]float64{}
		for _, row := range Fig7(QuickScale(), seed)[0].Rows {
			sx, errX := strconv.ParseFloat(row[4], 64)
			sy, errY := strconv.ParseFloat(row[5], 64)
			if errX != nil || errY != nil {
				t.Fatalf("Figure 7 row %v: spread columns do not parse", row)
			}
			spread[row[0]] = sx + sy
		}
		if spread["new"] == 0 {
			t.Fatalf("seed %d: Figure 7 has no new-workload cloud", seed)
		}
		ratios = append(ratios, spread["gen"]/spread["new"])
	}
	got := median(ratios)
	t.Logf("generated/new spread ratio per seed %v, median %.3f (floor %.3f; the paper's picture is ~1)", ratios, got, fig7SpreadFloor)
	if got < fig7SpreadFloor {
		t.Errorf("generated/new spread ratio %.3f fell below the known-bad floor %.3f", got, fig7SpreadFloor)
	}
}
