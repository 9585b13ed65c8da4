// Command warperbench regenerates the tables and figures of the Warper
// paper's evaluation section. Each experiment prints the same rows/series
// the paper reports, computed over the synthetic substitutes documented in
// DESIGN.md.
//
// Usage:
//
//	warperbench -list
//	warperbench -exp table7a
//	warperbench -exp all -quick
//	warperbench -exp fig6 -runs 5 -seed 42
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"warper/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id to run, or 'all'")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		quick = flag.Bool("quick", false, "use the shrunken quick scale")
		runs  = flag.Int("runs", 0, "override repetitions per configuration")
		seed  = flag.Int64("seed", 1, "base random seed")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: warperbench -exp <id>|all [-quick] [-runs N] [-seed S]")
		fmt.Fprintln(os.Stderr, "known experiments:", strings.Join(experiments.Names(), " "))
		os.Exit(2)
	}

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *runs > 0 {
		sc.Runs = *runs
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.Names()
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		run, err := experiments.Lookup(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		for _, t := range run(sc, *seed) {
			fmt.Println(t.String())
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
