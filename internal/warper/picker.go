package warper

import (
	"math/rand"

	"warper/internal/pool"
)

// pickUniform is the picker ℙ of Figure 4: it selects n of the candidates
// for annotation and training, uniformly with replacement, then
// deduplicated (annotating the same predicate twice is free). Every drift
// mode picks this way; only the candidate set differs (Adapter.pick). The
// paper's c1/c3 picker stratifies candidates by CE error instead; this
// implementation does not (DESIGN.md §5, "No stratified picker").
func pickUniform(cands []*pool.Entry, n int, rng *rand.Rand) []*pool.Entry {
	if len(cands) == 0 || n <= 0 {
		return nil
	}
	return dedup(sampleEntries(cands, n, rng))
}

// dedup removes duplicate entries while preserving order.
func dedup(entries []*pool.Entry) []*pool.Entry {
	seen := make(map[*pool.Entry]bool, len(entries))
	out := entries[:0]
	for _, e := range entries {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}
