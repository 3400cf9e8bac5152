package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/typelang"
)

// offeredRate is daemon-mixed's fixed open-loop ingest rate, in ingest
// requests per second (plus one schema GET per getEvery ingests). It is
// set near half of the closed-loop saturation of the commit that
// introduced the benchmark, measured on a 2-CPU host (about 135-150
// ingests/s there), and is never derived from the code under test.
const offeredRate = 70

const (
	collections = 4 // daemon-mixed spreads ingests over this many collections
	getEvery    = 4 // one schema GET per this many ingests
	reqTimeout  = 10 * time.Second
	setupGroup  = 10 // daemon launches timed at each of three points of a run
	satWindow   = time.Second
)

// Shares of a daemon-mixed run: the open loop at offeredRate, then the
// closed loop that measures saturation.
const (
	openShare   = 0.6
	closedShare = 0.3
)

// daemon is one running jsinferd.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	setup   time.Duration // launch until /healthz first answered 200
	drained chan struct{} // closed when its stderr reaches EOF
}

// startDaemon launches jsinferd on a loopback port of its choosing,
// learns the port from its "listening" log line and polls /healthz.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)...)
	// The daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	launched := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Read the log until EOF (process exit) so the daemon never
		// blocks on a full stderr pipe.
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if sent {
				continue
			}
			var line struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "listening" {
				addr <- line.Addr
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, errors.New("jsinferd exited before listening")
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("jsinferd did not report its address within 10s")
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(launched)
				return d, nil
			}
		}
		if time.Since(launched) > 10*time.Second {
			d.stop()
			return nil, errors.New("jsinferd /healthz not ready within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop terminates the daemon (SIGTERM, which drains in-flight requests,
// then SIGKILL after 10s) and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	d.cmd.Wait()
}

// cpu returns the daemon's user + system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// loadgen drives one daemon with ingests and schema GETs over at most
// nproc connections, remembering which bodies each collection accepted.
type loadgen struct {
	client *http.Client
	base   string
	pool   []body

	mu       sync.Mutex
	accepted [collections][]int
	bytes    int64 // decoded bytes of accepted bodies
	docs     int64
}

func newLoadgen(base string, pool []body) *loadgen {
	conns := runtime.NumCPU()
	return &loadgen{
		base: base,
		pool: pool,
		client: &http.Client{Timeout: reqTimeout, Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

// request is one scheduled operation: ingest k (body, collection and
// encoding follow from k) or, when get is set, a schema GET.
type request struct {
	k   int
	get bool
	due time.Time
}

func (r request) coll() int { return r.k % collections }

// do performs r and reports when a connection was obtained for it and
// why it failed ("" on success).
func (lg *loadgen) do(r request) (sent time.Time, failure string) {
	var req *http.Request
	var b body
	bi := r.k % len(lg.pool)
	if r.get {
		req, _ = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/collections/c%d/schema?output=counted", lg.base, r.coll()), nil)
	} else {
		b = lg.pool[bi]
		payload := b.identity
		if (r.k/collections)%2 == 1 {
			payload = b.gzipped
		}
		req, _ = http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/collections/c%d/ingest", lg.base, r.coll()), bytes.NewReader(payload))
		if (r.k/collections)%2 == 1 {
			req.Header.Set("Content-Encoding", "gzip")
		}
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { sent = time.Now() },
	}))
	resp, err := lg.client.Do(req)
	if err != nil {
		return sent, err.Error()
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return sent, err.Error()
	}
	if resp.StatusCode/100 != 2 {
		return sent, fmt.Sprintf("%s: HTTP %d", req.URL.Path, resp.StatusCode)
	}
	if r.get {
		if len(raw) == 0 {
			return sent, "empty schema response"
		}
		return sent, ""
	}
	var res struct{ Docs int }
	if err := json.Unmarshal(raw, &res); err != nil || res.Docs != b.docs {
		return sent, fmt.Sprintf("ingest merged %d of %d documents", res.Docs, b.docs)
	}
	lg.mu.Lock()
	lg.accepted[r.coll()] = append(lg.accepted[r.coll()], bi)
	lg.bytes += int64(len(b.identity))
	lg.docs += int64(b.docs)
	lg.mu.Unlock()
	return sent, ""
}

// openResult is what an open-loop phase measured.
type openResult struct {
	ingest, get []opLatency
	backlog     int // peak outstanding requests
}

// openLoop sends n ingests at rate per second starting at ingest k0,
// with one schema GET after every getEvery ingests, each on schedule
// regardless of how earlier requests are doing.
func (lg *loadgen) openLoop(k0, n int, rate float64, ops *tally) openResult {
	start := time.Now().Add(20 * time.Millisecond)
	gap := time.Duration(float64(time.Second) / rate)
	var sched []request
	for i := range n {
		sched = append(sched, request{k: k0 + i, due: start.Add(time.Duration(i) * gap)})
		if i%getEvery == getEvery-1 {
			// GET number i/getEvery reads collection (i/getEvery)%collections.
			sched = append(sched, request{k: i / getEvery, get: true, due: start.Add(time.Duration(i)*gap + gap/2)})
		}
	}
	lat := make([]opLatency, len(sched))
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	peak := 0
	for i, r := range sched {
		time.Sleep(time.Until(r.due))
		peak = max(peak, int(outstanding.Add(1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent, failure := lg.do(r)
			lat[i] = opLatency{due: r.due, sent: sent, done: time.Now(), failed: failure != ""}
			if sent.IsZero() {
				lat[i].sent = lat[i].done
			}
			outstanding.Add(-1)
			lg.mu.Lock()
			ops.add(failure)
			lg.mu.Unlock()
		}()
	}
	wg.Wait()
	res := openResult{backlog: peak}
	for i, r := range sched {
		if r.get {
			res.get = append(res.get, lat[i])
		} else {
			res.ingest = append(res.ingest, lat[i])
		}
	}
	return res
}

// closedLoop runs nproc clients sending ingests back to back, starting
// at ingest k0, until d has passed. It returns the next unused ingest
// number and the elapsed time until the last response.
func (lg *loadgen) closedLoop(k0 int, d time.Duration, ops *tally) (int, time.Duration) {
	var next atomic.Int64
	next.Store(int64(k0))
	start := time.Now()
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				_, failure := lg.do(request{k: int(next.Add(1) - 1)})
				lg.mu.Lock()
				ops.add(failure)
				lg.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), time.Since(start)
}

// create makes the collections up front, so an early schema GET finds
// its collection even before the first ingest into it completes.
func (lg *loadgen) create(ops *tally) {
	for c := range collections {
		req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/collections/c%d", lg.base, c), nil)
		resp, err := lg.client.Do(req)
		switch {
		case err != nil:
			ops.add(err.Error())
		case resp.StatusCode/100 != 2:
			resp.Body.Close()
			ops.add(fmt.Sprintf("PUT collection: HTTP %d", resp.StatusCode))
		default:
			resp.Body.Close()
			ops.add("")
		}
	}
}

// verify compares every collection's served schema (counts included)
// and document total with the DOM oracle over the bodies it accepted.
func (lg *loadgen) verify(eq typelang.Equiv, ops *tally) {
	for c := range collections {
		want, docs := foldBodies(lg.pool, lg.accepted[c], eq)
		resp, err := lg.client.Get(fmt.Sprintf("%s/v1/collections/c%d/schema?output=counted&meta=1", lg.base, c))
		if err != nil {
			ops.add(err.Error())
			continue
		}
		var got struct {
			Docs   int
			Schema string
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		switch {
		case err != nil:
			ops.add(fmt.Sprintf("collection c%d: %v", c, err))
		case got.Docs != docs:
			ops.add(fmt.Sprintf("collection c%d: %d documents, oracle %d", c, got.Docs, docs))
		case got.Schema != want.StringCounted():
			ops.add(fmt.Sprintf("collection c%d: schema differs from the DOM oracle", c))
		default:
			ops.add("")
		}
	}
}

// runDaemon measures jsinferd under the daemon-mixed traffic.
func runDaemon(cfg config) (*outcome, error) {
	pool, err := bodyPoolFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceDaemon(cfg, pool)
	}
	out := &outcome{}
	bin := cfg.bin("jsinferd")
	// Set-up is timed over setupGroup launches at each of three points
	// of the run (before, between and after the loops) plus the launch
	// of the daemon under load, so it does not rest on one moment of
	// the host's load.
	var setup []float64
	launch := func(n int) error {
		for range n {
			d, err := startDaemon(bin)
			if err != nil {
				return err
			}
			setup = append(setup, d.setup.Seconds())
			out.ops.add("")
			d.stop()
		}
		return nil
	}
	if err := launch(setupGroup); err != nil {
		return nil, err
	}
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setup = append(setup, d.setup.Seconds())
	out.ops.add("")

	lg := newLoadgen(d.base, pool)
	lg.create(&out.ops)
	// Warm-up: 0.3 s of closed-loop ingests, not timed.
	k, _ := lg.closedLoop(0, 300*time.Millisecond, &out.ops)

	n := int(offeredRate * openShare * cfg.seconds.Seconds())
	debug.FreeOSMemory() // the body pool's garbage, collected before timing
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	lg.mu.Lock()
	bytes0 := lg.bytes
	lg.mu.Unlock()
	open := lg.openLoop(k, n, offeredRate, &out.ops)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	lg.mu.Lock()
	openMB := float64(lg.bytes-bytes0) / 1e6
	bytes0, docs0 := lg.bytes, lg.docs
	lg.mu.Unlock()
	k += n

	if err := launch(setupGroup); err != nil {
		return nil, err
	}
	// Saturation: the closed loop in windows of satWindow, each figure
	// the median window, so a burst of host contention moves one window
	// rather than the result.
	var satMBs, satDocs []float64
	closedEnd := time.Now().Add(time.Duration(closedShare * float64(cfg.seconds)))
	for len(satMBs) == 0 || time.Now().Before(closedEnd) {
		var elapsed time.Duration
		k, elapsed = lg.closedLoop(k, satWindow, &out.ops)
		lg.mu.Lock()
		satMBs = append(satMBs, float64(lg.bytes-bytes0)/1e6/elapsed.Seconds())
		satDocs = append(satDocs, float64(lg.docs-docs0)/elapsed.Seconds())
		bytes0, docs0 = lg.bytes, lg.docs
		lg.mu.Unlock()
	}

	lg.verify(typelang.EquivLabel, &out.ops)
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := launch(setupGroup); err != nil {
		return nil, err
	}

	out.add("throughput_mb_s", median(satMBs), "MB/s")
	out.add("cpu_ms_per_mb", ms(cpu1-cpu0)/openMB, "ms/MB")
	out.add("peak_rss_mb", float64(rss)/1e6, "MB")
	out.add("setup_s", median(setup), "s")
	out.add("saturation_docs_s", median(satDocs), "docs/s")
	out.note("saturation_windows", len(satMBs))
	addLatencies(out, "ingest", open.ingest)
	addLatencies(out, "schema", open.get)
	out.note("offered_rate", offeredRate)
	poolBytes := 0
	for _, b := range pool {
		poolBytes += len(b.identity)
	}
	out.note("corpus_bytes", poolBytes)
	return out, nil
}

// addLatencies reports the median and the highest tail percentile with
// at least minBeyond samples beyond it, timed from when each request
// was due.
func addLatencies(out *outcome, prefix string, ops []opLatency) {
	var xs []float64
	for _, o := range ops {
		xs = append(xs, o.latencyMs())
	}
	out.add(prefix+"_p50_ms", percentile(xs, 50), "ms")
	if p, ok := tailPercentile(len(xs)); ok {
		out.add(tailName(prefix, p), percentile(xs, p), "ms")
	}
	out.note(prefix+"_samples", len(xs))
}

// lateP99 is how far behind its schedule the generator sent its
// requests: the 99th percentile of send time minus due time.
func lateP99(res openResult) float64 {
	var xs []float64
	for _, o := range slices.Concat(res.ingest, res.get) {
		xs = append(xs, o.lateMs())
	}
	return percentile(xs, 99)
}
