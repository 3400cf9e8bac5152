package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[max(1, min(rank(p, len(s)), len(s)))-1]
}

// rank is the 1-based nearest rank of percentile p among n samples
// (with a little slack so 99.9% of 10000 is rank 9990, not 9991).
func rank(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// tailLadder is the set of percentiles a tail metric may be named
// after, highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything from run to run.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that leaves
// at least minBeyond of n samples strictly beyond its nearest rank. It
// returns false when even the lowest rung has too few.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// tailName renders a metric name for percentile p: "ingest" and 95 give
// "ingest_p95_ms", 99.9 gives "ingest_p99.9_ms".
func tailName(prefix string, p float64) string {
	return fmt.Sprintf("%s_p%s_ms", prefix, trimFloat(p))
}

func trimFloat(p float64) string {
	if p == math.Trunc(p) {
		return fmt.Sprintf("%d", int(p))
	}
	return fmt.Sprintf("%g", p)
}

// opLatency is one open-loop request: when it was due, when the load
// generator actually had a connection to send it on, and when its
// response was complete.
type opLatency struct {
	due, sent, done time.Time
	failed          bool
}

// latencyMs is the request's latency timed from when it was due, not
// from when it was sent: a stall that delays later sends counts against
// every request it delays. A failed request counts as at least the
// client timeout, so it lands in the tail without making it infinite.
func (o opLatency) latencyMs() float64 {
	d := o.done.Sub(o.due)
	if o.failed {
		d = max(d, reqTimeout)
	}
	return ms(d)
}

// lateMs is how far behind its schedule the generator sent the request.
func (o opLatency) lateMs() float64 { return ms(o.sent.Sub(o.due)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts attempted and failed operations. A failure is a non-2xx
// response, a timeout, a non-zero exit or an output mismatch; an
// operation fails at most once however many of those it hits.
type tally struct {
	attempted, failed int
	reasons           []string
}

// add records one operation, failed when reason is non-empty.
func (t *tally) add(reason string) {
	t.attempted++
	if reason != "" {
		t.failed++
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, reason)
		}
	}
}

// ratio is failed ÷ attempted (0 when nothing was attempted).
func (t tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// span is one traced call: the layer operation it wraps, its interval,
// the span that caused it (-1 for a root) and the request it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its direct children cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := slices.Clone(ivs)
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
