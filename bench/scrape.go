package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// snapshot is one GET /metrics scrape: series name (with its label set, as
// the exposition prints it) → value. Layer metrics are differences of two
// snapshots, so they mean exactly what an operator's dashboard would show.
type snapshot map[string]float64

var metricsRequest = request("GET", "/metrics", "", nil)

func scrape(c *conn) (snapshot, error) {
	status, body, err := c.roundTrip(metricsRequest)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	s := snapshot{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		s[string(line[:sp])] = v
	}
	return s, nil
}

// delta is after − before for one series.
func delta(before, after snapshot, name string) float64 {
	return after[name] - before[name]
}

// sumPrefix adds the deltas of every series whose name starts with prefix
// (a counter family across its label values).
func sumPrefix(before, after snapshot, prefix string) float64 {
	var sum float64
	for name, v := range after {
		if strings.HasPrefix(name, prefix) {
			sum += v - before[name]
		}
	}
	return sum
}

// histQuantileUs reads quantile q of a histogram's growth between two
// scrapes, as the upper bound (in µs) of the bucket holding it; 0 when the
// histogram did not grow. name is the family, labels its label set without
// braces ("" for none).
func histQuantileUs(before, after snapshot, name, labels string, q float64) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	var bs []bucket
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		rest := strings.TrimSuffix(strings.TrimPrefix(series, prefix), "}")
		if !strings.HasPrefix(rest, `le="`) {
			continue
		}
		le := math.Inf(1)
		if s := strings.Trim(strings.TrimPrefix(rest, "le="), `"`); s != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(s, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	if len(bs) == 0 {
		return 0
	}
	// Buckets are cumulative: the total is the +Inf bucket, the quantile's
	// bucket the lowest bound whose cumulative count reaches q·total.
	total, best := 0.0, math.Inf(1)
	for _, b := range bs {
		if b.count > total {
			total = b.count
		}
	}
	if total == 0 {
		return 0
	}
	for _, b := range bs {
		if b.count >= q*total && b.le < best {
			best = b.le
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best * 1e6
}

// procStats is the process-wide resource reading around a measured phase.
type procStats struct {
	cpu      time.Duration // user + system
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
	maxRSSKB int64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procStats{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		allocB:   ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		maxRSSKB: int64(ru.Maxrss),
	}
}

// liveHeapMB forces a collection and reads what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
