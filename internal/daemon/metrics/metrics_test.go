package metrics

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// validateExposition checks s against the text exposition format
// (version 0.0.4): every family is announced by HELP+TYPE before its
// samples, sample names belong to the family (histograms add _bucket/
// _sum/_count), label blocks parse, and values are valid floats. It
// returns the parsed samples keyed by full sample line name+labels.
func validateExposition(t *testing.T, s string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)
	labelRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	var curFam, curType string
	sawHelp := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if sawHelp[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			sawHelp[name] = true
			curFam, curType = name, ""
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if fields[0] != curFam {
				t.Fatalf("line %d: TYPE %s does not follow its HELP (current family %s)", ln+1, fields[0], curFam)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[1])
			}
			curType = fields[1]
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			name, labels, val := m[1], m[2], m[3]
			base := name
			if curType == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if strings.HasSuffix(name, suf) {
						base = strings.TrimSuffix(name, suf)
					}
				}
			}
			if base != curFam {
				t.Fatalf("line %d: sample %s outside its family block (current %s)", ln+1, name, curFam)
			}
			if curType == "" {
				t.Fatalf("line %d: sample %s before TYPE", ln+1, name)
			}
			if labels != "" {
				for _, kv := range splitLabels(labels[1 : len(labels)-1]) {
					if !labelRe.MatchString(kv) {
						t.Fatalf("line %d: malformed label %q", ln+1, kv)
					}
				}
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil && val != "+Inf" && val != "-Inf" && val != "NaN" {
				t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
			}
			samples[name+labels] = f
		}
	}
	return samples
}

// splitLabels splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	var b strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
		case r == '\\':
			escaped = true
		case r == '"':
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
			continue
		}
		b.WriteRune(r)
	}
	out = append(out, b.String())
	return out
}

func TestCounterGaugeRendering(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("docs_total", "Docs merged.")
	c.Add(41)
	c.Inc()
	live := 3.0
	reg.Gauge("live_collections", "Live collections.", func() float64 { return live })
	v := reg.CounterVec("requests_total", "Requests.", "route", "code")
	v.With("GET /metrics", "200").Add(2)
	v.With("POST /ingest", "429").Inc()

	out := reg.Render()
	samples := validateExposition(t, out)
	if got := samples["docs_total"]; got != 42 {
		t.Errorf("docs_total = %v, want 42", got)
	}
	if got := samples["live_collections"]; got != 3 {
		t.Errorf("live_collections = %v, want 3", got)
	}
	if got := samples[`requests_total{route="GET /metrics",code="200"}`]; got != 2 {
		t.Errorf("vec sample = %v, want 2\n%s", got, out)
	}
	if got := samples[`requests_total{route="POST /ingest",code="429"}`]; got != 1 {
		t.Errorf("vec sample = %v, want 1\n%s", got, out)
	}
	// The gauge is function-backed: mutating the captured value changes
	// the next scrape without touching the registry.
	live = 7
	if got := validateExposition(t, reg.Render())["live_collections"]; got != 7 {
		t.Errorf("live gauge after update = %v, want 7", got)
	}
	// Rendering is deterministic.
	if a, b := reg.Render(), reg.Render(); a != b {
		t.Errorf("two scrapes of a quiet registry differ:\n%s\n---\n%s", a, b)
	}
}

func TestHistogramRendering(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("latency_seconds", "Latency.", []float64{0.1, 1, 10}, "route")
	s := h.With("GET /x")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		s.Observe(v)
	}
	out := reg.Render()
	samples := validateExposition(t, out)
	want := map[string]float64{
		`latency_seconds_bucket{route="GET /x",le="0.1"}`:  1,
		`latency_seconds_bucket{route="GET /x",le="1"}`:    3,
		`latency_seconds_bucket{route="GET /x",le="10"}`:   4,
		`latency_seconds_bucket{route="GET /x",le="+Inf"}`: 5,
		`latency_seconds_count{route="GET /x"}`:            5,
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("%s = %v, want %v\n%s", k, samples[k], v, out)
		}
	}
	if sum := samples[`latency_seconds_sum{route="GET /x"}`]; math.Abs(sum-56.05) > 1e-9 {
		t.Errorf("sum = %v, want 56.05", sum)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("odd_total", "Odd labels.", "k")
	v.With("a\"b\\c\nd").Inc()
	out := reg.Render()
	if !strings.Contains(out, `odd_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("escaped label missing:\n%s", out)
	}
	validateExposition(t, out)
}

func TestSameSeriesSharedAndPanicOnMismatch(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("x_total", "X.", "a")
	v.With("1").Inc()
	v.With("1").Inc()
	if got := v.With("1").Value(); got != 2 {
		t.Errorf("same label values must share a series: %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name under a different kind must panic")
		}
	}()
	reg.Gauge("x_total", "clash", func() float64 { return 0 })
}

// TestBeforeRenderOneSnapshotPerScrape: a BeforeRender hook runs once
// per scrape, before the gauges, and concurrent scrapes never see each
// other's captured state — every gauge of one scrape reports the same
// snapshot however many gauges read it.
func TestBeforeRenderOneSnapshotPerScrape(t *testing.T) {
	reg := NewRegistry()
	var calls, snap int
	reg.BeforeRender(func() {
		calls++
		snap = calls
	})
	for _, name := range []string{"a", "b", "c", "d"} {
		reg.Gauge(name, "Snapshot number.", func() float64 { return float64(snap) })
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				samples := validateExposition(t, reg.Render())
				if a := samples["a"]; samples["b"] != a || samples["c"] != a || samples["d"] != a {
					t.Errorf("one scrape mixed snapshots: %v", samples)
					return
				}
			}
		}()
	}
	wg.Wait()
	if calls != 200 {
		t.Errorf("hook ran %d times over 200 scrapes, want 200", calls)
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "N.")
	h := reg.HistogramVec("h_seconds", "H.", DefBuckets)
	hs := h.With()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				hs.Observe(float64(i) / 100)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			validateExposition(t, reg.Render())
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if hs.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", hs.Count())
	}
	sum := validateExposition(t, reg.Render())[`h_seconds_sum`]
	if want := 8 * 999 * 1000 / 2 / 100.0; math.Abs(sum-float64(want)) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v (atomic float adds lost updates?)", sum, want)
	}
}

func TestHTTPMiddleware(t *testing.T) {
	reg := NewRegistry()
	mw := NewHTTP(reg, "d")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok") // implicit 200 via Write
	})
	mux.HandleFunc("POST /fail", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	})
	srv := httptest.NewServer(mw.Wrap(mux))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/ok/" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(srv.URL+"/fail", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = http.Get(srv.URL + "/no/such/route"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	samples := validateExposition(t, reg.Render())
	// Path parameters collapse onto the pattern: 3 requests, 1 series.
	if got := samples[`d_http_requests_total{route="GET /ok/{id}",code="200"}`]; got != 3 {
		t.Errorf("pattern-labelled counter = %v, want 3\n%s", got, reg.Render())
	}
	if got := samples[`d_http_requests_total{route="POST /fail",code="418"}`]; got != 1 {
		t.Errorf("error counter = %v, want 1", got)
	}
	if got := samples[`d_http_requests_total{route="unmatched",code="404"}`]; got != 1 {
		t.Errorf("unmatched counter = %v, want 1", got)
	}
	if got := samples[`d_http_request_seconds_count{route="GET /ok/{id}"}`]; got != 3 {
		t.Errorf("latency count = %v, want 3", got)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "a_total 1") {
		t.Errorf("served body missing sample:\n%s", buf[:n])
	}
}
