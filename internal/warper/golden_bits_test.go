package warper

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/nn"
	"warper/internal/workload"
)

// Golden hashes of the seeded script below, last re-pinned when the
// error-stratified picker went: the c1 period (period 3, the first whose
// running hash moved) now draws its training entries uniformly, and the
// whole-pool re-embedding went with it, so the final pool hash sees z only
// on the new entries generation embeds. A change here means the
// adaptation trajectory's bits moved: that is a bug in the numeric path, not
// noise — do not re-pin without an explanation of which rounding or draw
// changed and why.
const (
	goldenBitsLM   = uint64(0xce62dd3d606116d6)
	goldenBitsMSCN = uint64(0x2445b8377b6d6c54)
)

// goldenReport is what the golden hashes render of a period's Report: the
// fields Report had when they were pinned, in that order. The hash goes
// through %+v, so a field added to Report since (Stages) would move the
// rendered text even when zeroed; fields the contract gains go into the
// hash some other way, not into this struct.
type goldenReport struct {
	Detection         Detection
	Generated         int
	Annotated         int
	Picked            int
	Updated           bool
	EarlyStopped      bool
	TrainedSamples    int
	Busy              time.Duration
	Partial           bool
	AnnotateFailed    int
	UsedFallback      bool
	TelemetryDegraded bool
}

type bitsHash struct{ h hash.Hash64 }

func (b bitsHash) floats(xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		b.h.Write(buf[:])
	}
}

func (b bitsHash) words(ws []uint64) {
	var buf [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[:], w)
		b.h.Write(buf[:])
	}
}

// adamMoments reads the first and second moment vectors Adam keeps for p
// (unexported maps keyed by parameter; nil before the first step).
func adamMoments(opt *nn.Adam, p *nn.Param) (m, v []float64) {
	a := reflect.ValueOf(opt).Elem()
	read := func(field string) []float64 {
		mv := a.FieldByName(field)
		if mv.IsNil() {
			return nil
		}
		s := mv.MapIndex(reflect.ValueOf(p))
		if !s.IsValid() {
			return nil
		}
		out := make([]float64, s.Len())
		for i := range out {
			out[i] = s.Index(i).Float()
		}
		return out
	}
	return read("m"), read("v")
}

// paramBits is the reflect walk of floatBits narrowed to what the contract
// is about: it appends the bits of every nn.Param weight reachable from v
// (unexported fields included) and skips every other float — gradient
// accumulators, layer caches and batch arenas are working memory whose
// layout is free to change.
func paramBits(v reflect.Value, seen map[uintptr]bool, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			out = paramBits(v.Elem(), seen, out)
		}
	case reflect.Interface:
		if !v.IsNil() {
			out = paramBits(v.Elem(), seen, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = paramBits(v.Index(i), seen, out)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(nn.Param{}) {
			return floatBits(v.FieldByName("W"), seen, out)
		}
		for i := 0; i < v.NumField(); i++ {
			out = paramBits(v.Field(i), seen, out)
		}
	}
	return out
}

// goldenBitsRun drives a seeded c2 → c1|c2 → c1 → none script and hashes
// everything the determinism contract covers: every 𝔼/𝔾 weight and Adam
// moment, every weight reachable from M, each pool entry's Z and GT, and the
// Reports (wall clock zeroed).
func goldenBitsRun(t *testing.T, mscn bool) (uint64, string) {
	t.Helper()
	env := newTestEnv(t, 300, 200)
	var m ce.Estimator
	if mscn {
		m = ce.NewMSCN(ce.NewCatalog(env.sch), 33)
	} else {
		m = ce.NewLM(ce.LMMLP, env.sch, 31)
	}
	if err := m.Train(env.train); err != nil {
		t.Fatalf("Train: %v", err)
	}
	ad, err := New(adapterCfg(), m, env.sch, env.ann, env.train)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	h := bitsHash{fnv.New64a()}
	var modes []string
	period := func(arr []Arrival) {
		rep := periodOK(t, ad, arr)
		fmt.Fprintf(h.h, "%+v\n", goldenReport{
			Detection:         rep.Detection,
			Generated:         rep.Generated,
			Annotated:         rep.Annotated,
			Picked:            rep.Picked,
			Updated:           rep.Updated,
			EarlyStopped:      rep.EarlyStopped,
			TrainedSamples:    rep.TrainedSamples,
			Busy:              0, // wall clock
			Partial:           rep.Partial,
			AnnotateFailed:    rep.AnnotateFailed,
			UsedFallback:      false, // not in Report: kept so the pinned %+v text does not move
			TelemetryDegraded: rep.TelemetryDegraded,
		})
		t.Logf("period %d (%s): running hash %#x", len(modes)+1, rep.Detection.Mode, h.h.Sum64())
		modes = append(modes, rep.Detection.Mode.String())
	}

	period(arrivalsOf(env.newQ[:40], true))

	rng := rand.New(rand.NewSource(52))
	dataset.UpdateDrift(env.tbl, 0.6, 1.5, rng)
	g4 := workload.New("w4", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	fresh, err := env.ann.AnnotateAll(context.Background(), workload.Generate(g4, 40, rng))
	if err != nil {
		t.Fatal(err)
	}
	period(arrivalsOf(fresh, true))

	g1 := workload.New("w1", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	unlabeled := func(n int) []Arrival {
		out := make([]Arrival, n)
		for i := range out {
			out[i] = Arrival{Pred: g1.Gen(rng)}
		}
		return out
	}
	period(unlabeled(100))

	// The operator declares the data drift handled; a training-workload
	// period with no feedback must then take the quiet early return.
	ad.det.pendingC1 = false
	period(unlabeled(100))

	c := ad.comps
	for i, no := range []struct {
		net *nn.Network
		opt *nn.Adam
	}{{c.enc, c.optEnc}, {c.gen, c.optGen}} {
		for _, p := range no.net.Params() {
			h.floats(p.W)
			mo, vo := adamMoments(no.opt, p)
			h.floats(mo)
			h.floats(vo)
		}
		t.Logf("network %d: running hash %#x", i, h.h.Sum64())
	}
	weights := paramBits(reflect.ValueOf(ad.M), map[uintptr]bool{}, nil)
	if len(weights) < 1000 {
		t.Fatalf("M exposes %d weights: the walk sees no trained network", len(weights))
	}
	h.words(weights)
	t.Logf("model: running hash %#x", h.h.Sum64())
	for _, pe := range ad.Pool.Entries {
		h.floats(pe.Z)
		h.floats([]float64{pe.GT})
	}
	return h.h.Sum64(), strings.Join(modes, " → ")
}

func testGoldenBits(t *testing.T, mscn bool, want uint64) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	got, modes := goldenBitsRun(t, mscn)
	if modes != "c2 → c1|c2 → c1 → none" {
		t.Fatalf("script ran %s, want c2 → c1|c2 → c1 → none", modes)
	}
	if got != want {
		t.Errorf("golden bits %#x, want %#x", got, want)
	}
}

// TestGoldenBitsLM pins the whole adaptation trajectory of an LM-mlp adapter
// to goldenBitsLM.
func TestGoldenBitsLM(t *testing.T) { testGoldenBits(t, false, goldenBitsLM) }

// TestGoldenBitsMSCN does the same with an MSCN model, whose Update runs the
// fourth copy of the hand-rolled gradient path that PR 14 folded into
// nn.BatchBackward.
func TestGoldenBitsMSCN(t *testing.T) { testGoldenBits(t, true, goldenBitsMSCN) }
