package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // rank 9990: 10 beyond
		{9999, 99, true},    // 99.9 leaves 9
		{1000, 99, true},    // rank 990: 10 beyond
		{999, 98, true},     // 99 leaves 9
		{480, 95, true},     // 98 leaves 9, 95 leaves 24
		{120, 90, true},     // 95 leaves 6, 90 leaves 12
		{40, 75, true},      // 90 leaves 4, 75 leaves 10
		{39, 0, false},      // 75 leaves 9
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if got := tailName("ingest", 95); got != "ingest_p95_ms" {
		t.Errorf("tailName = %q", got)
	}
	if got := tailName("schema", 99.9); got != "schema_p99.9_ms" {
		t.Errorf("tailName = %q", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.5: 100, 100: 100, 0.1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	o := opLatency{due: due, sent: due.Add(30 * time.Millisecond), done: due.Add(50 * time.Millisecond)}
	if o.latencyMs() != 50 || o.lateMs() != 30 {
		t.Errorf("latency %v late %v, want 50 and 30", o.latencyMs(), o.lateMs())
	}
	o.failed = true
	if o.latencyMs() != ms(reqTimeout) {
		t.Errorf("failed request latency %v, want the %v timeout", o.latencyMs(), reqTimeout)
	}
}

// Failed requests reach the tail percentile as finite latencies, and a
// metric that is not finite is left out of the result line rather than
// breaking it.
func TestFailuresInTheTailStayReportable(t *testing.T) {
	due := time.Unix(100, 0)
	var ops []opLatency
	for i := range 100 {
		ops = append(ops, opLatency{due: due, sent: due, done: due.Add(5 * time.Millisecond), failed: i >= 85})
	}
	out := &outcome{}
	addLatencies(out, "ingest", ops)
	byName := map[string]float64{}
	for _, m := range out.metrics {
		byName[m.Name] = m.Value
	}
	if byName["ingest_p50_ms"] != 5 || byName["ingest_p90_ms"] != ms(reqTimeout) {
		t.Errorf("latencies %v, want p50 5 and p90 the timeout", byName)
	}

	declared := []metric{{Name: "ingest_p90_ms"}, {Name: "cpu_ms_per_mb"}, {Name: "setup_s"}}
	measured := append(out.metrics, metric{"cpu_ms_per_mb", math.Inf(1), "ms/MB"}, metric{"setup_s", math.NaN(), "s"})
	line, missing := resultLine(declared, measured, tally{attempted: 100, failed: 15})
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]reported
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if got.Correct || got.Attempted != 100 || got.Failed != 15 || len(got.Metrics) != 1 || got.Metrics["ingest_p90_ms"].Value != ms(reqTimeout) {
		t.Errorf("result line %s", line)
	}
	if !slices.Equal(missing, []string{"cpu_ms_per_mb", "setup_s"}) {
		t.Errorf("missing %v", missing)
	}
}

// A stalled server delays every request queued behind it; the open loop
// must charge that wait to each of them, measured from when it was due.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, `{"docs":1}`)
	}))
	defer srv.Close()
	stall := 150 * time.Millisecond
	time.AfterFunc(stall, func() { close(release) })
	start := time.Now()
	lg := newLoadgen(srv.URL, []body{{identity: []byte("{\"a\":1}\n"), gzipped: gzipBytes([]byte("{\"a\":1}\n")), docs: 1}})
	var ops tally
	res := lg.openLoop(0, 8, 100, &ops)
	if ops.failed != 0 || ops.attempted != len(res.ingest)+len(res.get) {
		t.Fatalf("tally %+v for %d requests", ops, len(res.ingest)+len(res.get))
	}
	for i, o := range slices.Concat(res.ingest, res.get) {
		floor := ms(start.Add(stall).Sub(o.due))
		if o.latencyMs() < floor {
			t.Errorf("request %d: latency %.1fms, below the %.1fms it waited since due", i, o.latencyMs(), floor)
		}
		if o.sent.Before(o.due) {
			t.Errorf("request %d sent before it was due", i)
		}
	}
	if res.backlog < 2 {
		t.Errorf("backlog %d, want the stalled requests to pile up", res.backlog)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Req: 1, Name: "registry.ingest", Start: 0, End: 100},
		{ID: 1, Parent: 0, Req: 1, Name: "registry.pipeline", Start: 10, End: 40},
		{ID: 2, Parent: 0, Req: 1, Name: "registry.flush", Start: 30, End: 60}, // overlaps span 1
		{ID: 3, Parent: 1, Req: 1, Name: "infer.map", Start: 15, End: 20},
		{ID: 4, Parent: 0, Req: 1, Name: "registry.quota", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: -1, Req: 2, Name: "registry.ingest", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 100 - 50 - 10, 1: 30 - 5, 2: 30, 3: 5, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
	layers := layerSelf(spans, 1)
	if layers["registry"] != 40+25+30+30 || layers["infer"] != 5 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestFailureCounting(t *testing.T) {
	var ops tally
	procRun{out: []byte("{a: Int}\n")}.check(&ops, "run", "{a: Int}\n")
	procRun{out: []byte("{a: Str}\n")}.check(&ops, "run", "{a: Int}\n")
	procRun{out: []byte("{a: Int}\n"), err: errors.New("exit status 1")}.check(&ops, "run", "{a: Int}\n")
	if ops.attempted != 3 || ops.failed != 2 || ops.ratio() != 2.0/3 {
		t.Fatalf("tally %+v", ops)
	}
	if !strings.Contains(ops.reasons[0], "DOM oracle") || !strings.Contains(ops.reasons[1], "exit status 1") {
		t.Errorf("reasons %q", ops.reasons)
	}

	// HTTP: non-2xx and short ingests fail, each request once.
	status := http.StatusOK
	docs := 1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"docs":%d}`, docs)
	}))
	defer srv.Close()
	lg := newLoadgen(srv.URL, []body{{identity: []byte("{}\n"), gzipped: gzipBytes([]byte("{}\n")), docs: 1}})
	var web tally
	for _, c := range []struct{ status, docs int }{{200, 1}, {500, 1}, {200, 0}, {429, 0}} {
		status, docs = c.status, c.docs
		_, failure := lg.do(request{k: 0})
		web.add(failure)
	}
	if web.attempted != 4 || web.failed != 3 {
		t.Errorf("HTTP tally %+v", web)
	}
	if len(lg.accepted[0]) != 1 {
		t.Errorf("accepted %v, want only the successful ingest", lg.accepted[0])
	}
}
