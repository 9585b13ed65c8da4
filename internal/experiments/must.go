package experiments

// The experiment harness runs offline over datasets and workloads that are
// consistent by construction (every generator draws predicates over the
// table's own schema), so annotation and model-update failures indicate a
// broken experiment setup rather than a recoverable condition. These
// helpers convert such errors into panics to keep the table-generation code
// readable; the serving stack, by contrast, threads the errors through
// (see internal/serve) and warperlint's panicfree rule keeps it that way.

// must unwraps a (value, error) pair, panicking on the error.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check panics on a non-nil error.
func check(err error) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
}
