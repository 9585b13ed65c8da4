package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"warper/internal/gbt"
	"warper/internal/kernel"
	"warper/internal/resilience"
	"warper/internal/serve"
	"warper/internal/warper"
)

var (
	// flagToken matches a command-line flag as the docs write it: a dash
	// after a space, parenthesis or backtick, then a lower-case name.
	flagToken = regexp.MustCompile("(?:^|[\\s(`])-([a-z][a-z0-9-]*)")
	// dashSpan matches an inline code span that opens with a flag, which is
	// how the verify skill's prose names warperd flags.
	dashSpan = regexp.MustCompile("`(-[^`]*)`")
	// codeSpan matches any inline code span.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// censusFigure matches the sentence of DESIGN §14 that states the census.
	censusFigure = regexp.MustCompile(`The census\s+stands at (\d+) settable values`)
)

func flagTokens(s string) []string {
	var out []string
	for _, m := range flagToken.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

func docLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// TestDocsNameOnlyRealFlags closes the doc loop for warperd's command line:
// every flag named by a README flag table, by a `warperd -…` usage line of
// README.md or the verify skill (and the skill's flag-led code spans), or
// anywhere in this package's doc comment is registered by defineFlags; and
// every registered flag has a row in a README flag table.
func TestDocsNameOnlyRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("warperd", flag.ContinueOnError)
	defineFlags(fs)
	defined := func(path string, line int, text string) {
		for _, name := range flagTokens(text) {
			if fs.Lookup(name) == nil {
				t.Errorf("%s:%d names -%s, which warperd does not define", path, line, name)
			}
		}
	}
	usage := func(path string, line int, text string) {
		if i := strings.Index(text, "warperd -"); i >= 0 {
			defined(path, line, text[i:])
		}
	}

	documented := map[string]bool{}
	inFlagTable := false
	for i, line := range docLines(t, "../../README.md") {
		if strings.HasPrefix(line, "| Flag |") {
			inFlagTable = true
		} else if !strings.HasPrefix(line, "|") {
			inFlagTable = false
		}
		if inFlagTable && strings.HasPrefix(line, "| `-") {
			// The first cell names the flag the row documents; flags the
			// other cells mention must exist too.
			documented[flagTokens(line)[0]] = true
			defined("README.md", i+1, line)
		} else {
			usage("README.md", i+1, line)
		}
	}
	for i, line := range docLines(t, "main.go") {
		if !strings.HasPrefix(line, "//") {
			break // the package comment ends at the package clause
		}
		defined("main.go", i+1, line)
	}
	for i, line := range docLines(t, "../../.claude/skills/verify/SKILL.md") {
		usage("SKILL.md", i+1, line)
		for _, m := range dashSpan.FindAllStringSubmatch(line, -1) {
			defined("SKILL.md", i+1, m[1])
		}
	}

	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if !documented[f.Name] {
			t.Errorf("-%s has no row in a README flag table", f.Name)
		}
	})
	if n > 20 {
		t.Errorf("warperd defines %d flags; ROADMAP item 7 caps the command line at 20", n)
	}
}

// TestSettableValuesDocumented makes DESIGN §14's census executable: every
// exported field of the structs through which a caller configures the
// daemon, the adaptation path and the LM backends — and of any struct of
// this module nested in one — has a row of the §14 table naming it. A row
// names field F of a struct written P when one of its code spans is `P.F`,
// or when one span opens with `P.` and another is `F` (a row groups one
// struct's fields as "`Config.Hidden` `Depth` …"). The census figure §14
// states is the count of warperd's flags and of the fields on the path from
// warperd to Algorithm 1.
func TestSettableValuesDocumented(t *testing.T) {
	var rows [][]string
	var prose strings.Builder
	inCensus := false
	for _, line := range docLines(t, "../../DESIGN.md") {
		if strings.HasPrefix(line, "## ") {
			inCensus = strings.HasPrefix(line, "## 14.")
		}
		if !inCensus {
			continue
		}
		prose.WriteString(line + "\n")
		if !strings.HasPrefix(line, "|") {
			continue
		}
		var spans []string
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
		}
		rows = append(rows, spans)
	}
	named := func(prefix, field string) bool {
		for _, spans := range rows {
			var hasPrefix, hasField bool
			for _, s := range spans {
				if s == prefix+field {
					return true
				}
				hasPrefix = hasPrefix || strings.HasPrefix(s, prefix)
				hasField = hasField || s == field
			}
			if hasPrefix && hasField {
				return true
			}
		}
		return false
	}

	// audit returns how many settable values typ holds: its exported fields
	// and those of the module's structs nested in it.
	var audit func(prefix string, typ reflect.Type) int
	audit = func(prefix string, typ reflect.Type) int {
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			n++
			if !named(prefix, f.Name) {
				t.Errorf("%s%s (%s) has no row in DESIGN §14", prefix, f.Name, typ.PkgPath())
			}
			if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "warper/") {
				n += audit(f.Type.Name()+".", f.Type)
			}
		}
		return n
	}
	fs := flag.NewFlagSet("warperd", flag.ContinueOnError)
	defineFlags(fs)
	census := 0
	fs.VisitAll(func(*flag.Flag) { census++ })
	for _, s := range []struct {
		prefix  string
		v       any
		counted bool // on the path from warperd to Algorithm 1
	}{
		{"Options.", serve.Options{}, true},
		{"Config.", warper.Config{}, true},
		{"Policy.", resilience.Policy{}, true},
		{"gbt.Config.", gbt.Config{}, false},
		{"kernel.Config.", kernel.Config{}, false},
	} {
		if n := audit(s.prefix, reflect.TypeOf(s.v)); s.counted {
			census += n
		}
	}
	m := censusFigure.FindStringSubmatch(prose.String())
	if m == nil {
		t.Fatal("DESIGN §14 states no census figure (\"The census stands at N settable values\")")
	}
	if m[1] != strconv.Itoa(census) {
		t.Errorf("DESIGN §14 says the census stands at %s settable values; warperd's flags and the counted structs hold %d", m[1], census)
	}
}
