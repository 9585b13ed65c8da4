// Command warperlint runs the project's static-analysis suite (package
// internal/lint) over the module: determinism of the algorithm packages,
// panic-freedom of the serving path, dropped-error detection everywhere,
// context propagation, metric naming, typed atomics only, no go statements
// outside the benchmark's load generator, and the module-wide call-graph
// rules — hot-path allocation-freedom, and a lock discipline in which no
// module lock is taken under another and no slow work runs under a
// serving lock. It exits non-zero when any diagnostic survives
// //lint:allow suppression, so it can gate scripts/check.sh and CI.
// -rules lists every rule with its package scope.
//
// Usage:
//
//	warperlint [-rules] [-rule name] [-json] [./... | dir ...]
//
// ./... (the default) lints the whole module. A directory argument lints
// just that package directory — useful for spot-checking a fixture:
//
//	warperlint internal/lint/testdata/src/panicfree/ce
//
// -rule runs a single analyzer by name; -json emits diagnostics as a JSON
// array on stdout (CI uploads it as an artifact). Load and analysis
// durations are logged to stderr either way. Run from anywhere inside the
// module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"warper/internal/lint"
)

// jsonDiagnostic is the machine-readable wire form of one diagnostic.
type jsonDiagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

func main() {
	rules := flag.Bool("rules", false, "list the analyzers and exit")
	rule := flag.String("rule", "", "run only the named analyzer")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Parse()

	if *rules {
		for _, a := range lint.All() {
			kind := "per-package"
			if a.ModuleWide() {
				kind = "module-wide (call graph)"
			}
			fmt.Printf("%-16s %-24s scope: %s\n", a.Name, kind, a.Scope())
			fmt.Printf("%-16s %s\n", "", a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *rule != "" {
		a := lint.ByName(*rule)
		if a == nil {
			fmt.Fprintf(os.Stderr, "warperlint: unknown rule %q (see -rules)\n", *rule)
			os.Exit(2)
		}
		analyzers = []*lint.Analyzer{a}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "warperlint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "warperlint:", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	t0 := time.Now()
	var pkgs []*lint.Package
	for _, arg := range args {
		if arg == "./..." {
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintln(os.Stderr, "warperlint:", err)
				os.Exit(2)
			}
			pkgs = append(pkgs, all...)
			continue
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "warperlint:", err)
			os.Exit(2)
		}
		// The synthetic import path ends in the directory's base name, so
		// per-package analyzer scoping works the same as in a module load.
		pkg, err := loader.LoadDir("dir/"+filepath.Base(abs), abs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "warperlint:", err)
			os.Exit(2)
		}
		pkgs = append(pkgs, pkg)
	}
	loadDur := time.Since(t0)

	t1 := time.Now()
	diags := lint.RunAnalyzers(pkgs, analyzers)
	fmt.Fprintf(os.Stderr, "warperlint: loaded %d package(s) in %s, analyzed in %s\n",
		len(pkgs), loadDur.Round(time.Millisecond), time.Since(t1).Round(time.Millisecond))

	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Rule:    d.Rule,
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "warperlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "warperlint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
