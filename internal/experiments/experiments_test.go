package experiments

import (
	"hash/fnv"
	"strings"
	"testing"
)

// smokeScale is even smaller than QuickScale so every experiment's full code
// path runs in seconds inside the unit-test suite.
func smokeScale() Scale {
	s := QuickScale()
	s.TrainSize = 150
	s.StreamSize = 60
	s.PeriodSize = 20
	s.TestSize = 50
	s.Rows = 1000
	s.Warper.NIters = 15
	s.Warper.PickSize = 80
	return s
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"table6", "table7a", "table7b", "table7c", "table7d", "table8",
		"table9", "table10", "table11", "ext-histogram",
	}
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) should fail")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tbl.String()
	if !strings.Contains(s, "== T: demo ==") || !strings.Contains(s, "333") {
		t.Errorf("rendering wrong:\n%s", s)
	}
}

func TestRunC2ProducesConsistentCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	sc := smokeScale()
	// One names slice shared by every row, as Fig6/Fig8 share fig6Methods;
	// a re-train model (lm-gbt) reports under FT like any other.
	names := []string{"FT", "Warper"}
	for _, model := range []string{"lm-mlp", "lm-gbt"} {
		t.Run(model, func(t *testing.T) {
			res := RunC2("prsa", "w1", "w4", model, names, sc, 5)
			if names[0] != "FT" || names[1] != "Warper" {
				t.Errorf("RunC2 rewrote the caller's method names: %v", names)
			}
			if got := res.MethodOrder; len(got) != 2 || got[0] != "FT" || got[1] != "Warper" {
				t.Errorf("MethodOrder = %v, want [FT Warper]", got)
			}
			if len(res.Curves) != 2 {
				t.Fatalf("curves = %d", len(res.Curves))
			}
			ft := res.Curves["FT"]
			w := res.Curves["Warper"]
			if ft.Len() != w.Len() || ft.Len() != sc.StreamSize/sc.PeriodSize+1 {
				t.Errorf("curve lengths: FT=%d warper=%d", ft.Len(), w.Len())
			}
			// Both start from the same unadapted model error.
			if ft.Initial() != w.Initial() {
				t.Errorf("methods start from different errors: %v vs %v", ft.Initial(), w.Initial())
			}
			d5, d8, d1 := res.Speedups("Warper")
			for _, d := range []float64{d5, d8, d1} {
				if d < 0 {
					t.Errorf("negative speedup %v", d)
				}
			}
		})
	}
}

func TestEnvDriftMetricsPopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	env := NewEnv("poker", "w12", "w345", "lm-mlp", smokeScale(), 3)
	if env.DeltaJS <= 0 {
		t.Errorf("δ_js = %v, want > 0 for drifted workloads", env.DeltaJS)
	}
	if len(env.Train) == 0 || len(env.Stream) == 0 || len(env.Test) == 0 {
		t.Error("empty query sets")
	}
}

func TestEnvUnknownInputsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewEnv("nope", "w1", "w2", "lm-mlp", smokeScale(), 1) },
		func() { NewModel("nope", nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// smokeDigests pins, per experiment id, the FNV-1a hash of the tables the id
// renders at smokeScale with seed 9: the paper record as a gate, so a change
// that moves any experiment's numbers fails here the way adapt_gmq fails the
// benchmark. table6 and table11 are absent on purpose — their cells are
// wall-clock reads of the adaptation ledger and differ run to run. A digest
// that moves means the experiment's inputs or arithmetic changed: re-pin only
// with the cause named in CHANGES.md (and regenerate results_full.txt).
var smokeDigests = map[string]uint64{
	"ext-histogram": 0xf0cf969a4fe0933d,
	"fig1":          0xe6d882fb63421953,
	"fig10":         0x76f738489443f22c,
	"fig11":         0x81abfd22b7a9c3d9,
	"fig5":          0xb8d0513ba6849682,
	"fig6":          0xbb0964fccd904821,
	"fig7":          0xf5d3d7feb965183,
	"fig8":          0xe9fb43ff941263a,
	"fig9":          0xc25bcb695612769c,
	"table10":       0x7194a54d3d435bef,
	"table7a":       0x6cd461a6ec6094b5,
	"table7b":       0xfeb30deaf2fcaf68,
	"table7c":       0x940a67fd09af0f28,
	"table7d":       0x80a555e273919847,
	"table8":        0x62f5db4ef2eecb91,
	"table9":        0x416ed26ac449fcc7,
}

// Smoke tests: every registered experiment runs end to end at tiny scale,
// emits non-empty tables, and reproduces its pinned digest.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	sc := smokeScale()
	for _, id := range Names() {
		id := id
		t.Run(id, func(t *testing.T) {
			run, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			tables := run(sc, 9)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			h := fnv.New64a()
			for _, tbl := range tables {
				if len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
					t.Errorf("table %s is empty", tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("table %s: row width %d vs header %d", tbl.ID, len(row), len(tbl.Header))
					}
				}
				h.Write([]byte(tbl.String()))
			}
			if id == "table6" || id == "table11" {
				return
			}
			if want, ok := smokeDigests[id]; !ok || h.Sum64() != want {
				t.Errorf("digest %#x, pinned %#x (pinned: %v)", h.Sum64(), want, ok)
			}
		})
	}
}
