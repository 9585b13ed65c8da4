package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// flagToken matches a command-line flag as the docs write it: a dash
	// after a space, parenthesis or backtick, then a lower-case name.
	flagToken = regexp.MustCompile("(?:^|[\\s(`])-([a-z][a-z0-9-]*)")
	// dashSpan matches an inline code span that opens with a flag, which is
	// how the verify skill's prose names warperd flags.
	dashSpan = regexp.MustCompile("`(-[^`]*)`")
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
