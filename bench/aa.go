package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// child runs one workload in a fresh process of this same binary, so every
// run starts from a cold heap and its memory readings are its own, and
// returns the report line it printed.
func child(workload string, seed int64, seconds int, trace bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", tr)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "report: "); ok {
			rep := &report{}
			if err := json.Unmarshal([]byte(line), rep); err != nil {
				return nil, err
			}
			return rep, runErr
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return nil, fmt.Errorf("%s: no report line in the run's output", workload)
}

// runAll runs every workload untraced, then traced, and prints each report.
func runAll(seed int64, seconds int) int {
	code := 0
	began := time.Now()
	for _, trace := range []bool{false, true} {
		for _, w := range workloadNames {
			rep, err := child(w, seed, seconds, trace)
			if rep != nil {
				printReport(rep)
				fmt.Println()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
				code = 1
			}
		}
	}
	fmt.Printf("all runs took %.0f s\n", time.Since(began).Seconds())
	return code
}

// benchmarkFile is the part of BENCHMARK.json the A/A mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		h := p * float64(len(s)+1)
		j := int(math.Floor(h))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runAA is the A/A agreement check: the same build, 2n runs per workload,
// every run with another seed, dealt alternately to set A and set B. For
// every end-to-end metric the two sets' medians must not differ by more than
// the metric's bound, and its spread — the interquartile range over the
// median, across all 2n runs — is printed beside the bound: a metric whose
// runs of one build differ by more than its bound cannot gate a change. The
// adaptation scenario does not depend on the seed, so every run must also
// have played the same adaptation to the same accuracy.
func runAA(n int, seed int64, seconds int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("A/A mode reads the bounds from BENCHMARK.json in the working directory: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	began := time.Now()
	code := 0
	for _, w := range workloadNames {
		sets := [2][]*report{}
		var all []*report
		for i := 0; i < 2*n; i++ {
			rep, err := child(w, seed+int64(i), seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
				return 1
			}
			logf("%s set %c seed %d: %.1f s", w, 'A'+i%2, seed+int64(i), rep.RunS)
			sets[i%2] = append(sets[i%2], rep)
			all = append(all, rep)
		}
		fmt.Printf("\n%s: %d runs per set, seeds %d..%d\n", w, n, seed, seed+int64(2*n)-1)
		fmt.Printf("  %-18s %14s %14s %9s %7s   %-36s %8s\n", "metric", "median A", "median B", "|A-B|/A", "bound", "quartiles of all runs", "IQR/med")
		col := func(set []*report, get func(*report) float64) []float64 {
			var xs []float64
			for _, r := range set {
				xs = append(xs, get(r))
			}
			return xs
		}
		for _, m := range bf.EndToEnd {
			get := func(r *report) float64 { return r.EndToEnd[m.Name] }
			_, ma, _ := quartiles(col(sets[0], get))
			_, mb, _ := quartiles(col(sets[1], get))
			q1, q2, q3 := quartiles(col(all, get))
			diff, spread := math.Abs(ma-mb)/ma, (q3-q1)/q2
			verdict := ""
			if diff > m.Bound {
				verdict += "  DISAGREE"
				code = 1
			}
			if spread > m.Bound && m.Name != "setup_s" {
				verdict += "  SPREAD OVER BOUND"
				code = 1
			}
			fmt.Printf("  %-18s %14.4f %14.4f %8.2f%% %6.1f%%   %11.4f %11.4f %11.4f %7.2f%%%s\n",
				m.Name, ma, mb, 100*diff, 100*m.Bound, q1, q2, q3, 100*spread, verdict)
		}
		_, cvMed, cvQ3 := quartiles(col(all, func(r *report) float64 { return r.Layers["bench.window_cv"] }))
		fmt.Printf("  bench.window_cv median %.3f, third quartile %.3f\n", cvMed, cvQ3)
		for _, r := range all[1:] {
			ta, tb := fmt.Sprint(all[0].Trajectory), fmt.Sprint(r.Trajectory)
			ga, gb := all[0].EndToEnd["adapt_gmq"], r.EndToEnd["adapt_gmq"]
			if ta != tb || ga != gb {
				fmt.Printf("  NOT DETERMINISTIC: seed %d played %s (gmq %v), seed %d played %s (gmq %v)\n", all[0].Seed, ta, ga, r.Seed, tb, gb)
				code = 1
			}
		}
	}
	fmt.Printf("\nA/A took %.0f s\n", time.Since(began).Seconds())
	return code
}
