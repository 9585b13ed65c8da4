package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The reference host is a 2-vCPU guest whose speed drifts by a third over
// minutes with what its neighbours do: ten runs of one build, read raw,
// spread by 15–40 % (interquartile range over median) on every timing metric
// — more than any bound worth gating on. A run therefore measures the host
// while it measures the system: every closed-loop client interleaves with its
// requests, every echoEvery, a fixed piece of work that involves none of this
// repository's code — echoRounds round trips of a two-byte POST to a bare
// net/http server over the same loopback. Each timed interval (a measuring
// window, an adaptation period) is multiplied by echoRefUs over the median
// echo time observed inside it, i.e. reported in units of what a bare round
// trip cost on this host at that moment, times the reference round trip. The
// raw readings and the echo time itself are reported beside the scaled ones
// as layer metrics.
//
// What this can hide: a change that slows the echo itself — more collector
// work, a goroutine that hogs a core — has that share of its cost divided
// out. README.md, "Does a regression still show?", has the measurements;
// TestInjectedSlowdownShows repeats them.
//
// A compute-only kernel, and echo samples taken by a separate process between
// the windows while the clients were parked, both tracked the host far worse
// than samples taken in the load itself: what moves is what contended,
// cache-missing code costs while both cores are busy, and only work done in
// that state sees it.
const (
	echoRounds = 4
	// echoRefUs is what echoRounds round trips take on the reference host
	// when it is quiet. Changing it rescales every scaled metric.
	echoRefUs = 80.0
	// echoEvery is how often a load client interleaves an echo sample.
	echoEvery = 20 * time.Millisecond
)

var echoRequest = request("POST", "/echo", "text/plain", []byte("x"))

// echoServer is the calibration target: net/http and nothing else.
type echoServer struct {
	ts   *httptest.Server
	addr string
}

func newEchoServer() *echoServer {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok")) // the client notices a short reply; nothing to do about it here
	}))
	return &echoServer{ts: ts, addr: strings.TrimPrefix(ts.URL, "http://")}
}

func (e *echoServer) close() { e.ts.Close() }

// echoSample times echoRounds round trips on c, in µs.
func echoSample(c *conn) (float64, error) {
	t := time.Now()
	for i := 0; i < echoRounds; i++ {
		if _, _, err := c.roundTrip(echoRequest); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t)) / 1e3, nil
}

// echoLog is every echo sample of a run with when it was taken and, for a
// sample taken inside a measuring window, which one.
type echoLog struct {
	mu      sync.Mutex
	at      []time.Time
	us      []float64
	window  []int // -1 outside the windows
	dropped int
}

// Sized for two clients sampling every echoEvery for eighty seconds, three
// times the longest phase of a run of record, and small beside the live heap
// the run reports; a full log drops samples (they are only calibration) and
// says so.
func newEchoLog() *echoLog {
	const n = 1 << 13
	return &echoLog{at: make([]time.Time, 0, n), us: make([]float64, 0, n), window: make([]int, 0, n)}
}

func (l *echoLog) add(at time.Time, us float64, window int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.us) == cap(l.us) {
		l.dropped++
		return
	}
	l.at, l.us, l.window = append(l.at, at), append(l.us, us), append(l.window, window)
}

// ofWindow is the median echo sample of measuring window w, or of the whole
// run when the window was too short to hold one.
func (l *echoLog) ofWindow(w int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var in []float64
	for i, x := range l.window {
		if x == w {
			in = append(in, l.us[i])
		}
	}
	if len(in) == 0 {
		in = l.us
	}
	return median(in)
}

// between is the median echo sample taken in [from-slack, to+slack], where
// slack widens the interval until it holds at least three samples (a 25 ms
// period may hold none of its own).
func (l *echoLog) between(from, to time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for slack := time.Duration(0); ; slack = 2*slack + echoEvery {
		lo, hi := from.Add(-slack), to.Add(slack)
		var in []float64
		for i, t := range l.at {
			if !t.Before(lo) && !t.After(hi) {
				in = append(in, l.us[i])
			}
		}
		if len(in) >= 3 || slack > time.Minute {
			return median(in)
		}
	}
}

// speed is the factor a duration is multiplied by (and a rate divided by)
// to read as on the reference host, given the echo time observed beside it.
func speed(echoUs float64) float64 {
	if echoUs <= 0 {
		return 1
	}
	return echoRefUs / echoUs
}
