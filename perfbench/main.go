// Command perfbench is the repository benchmark. It drives the real
// jsinfer and jsinferd binaries over inputs generated from a seed,
// checks every output against the DOM oracle, and prints each metric by
// name and unit; the last line of standard output is one JSON object
// with the metrics BENCHMARK.json declares for the mode.
//
// Usage (from the repository root, after building the programs; see
// run.sh, which does both):
//
//	perfbench -root . -workload tweets-file|sparse-stdin|daemon-mixed
//	          -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics with nothing traced.
// With -trace 1 it instead calls each layer's public functions on the
// same inputs under benchmark-side spans and reports the per-layer
// metrics; the spans are written to .bench_build/results when the run
// ends. See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported is a metric as the result line and the result file carry it.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured.
type outcome struct {
	ops     tally
	metrics []metric
	info    map[string]any // extra facts recorded with the result (sample counts, corpus size)
	spans   []span         // traced runs only
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) note(key string, v any) {
	if o.info == nil {
		o.info = map[string]any{}
	}
	o.info[key] = v
}

// config is one invocation's settings.
type config struct {
	build    string // build and cache directory inside the checkout
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	declared []metric // the metrics BENCHMARK.json declares for the mode
}

func (c config) bin(name string) string { return filepath.Join(c.build, "bin", name) }

var workloads = map[string]func(config) (*outcome, error){
	"tweets-file":  runBatch,
	"sparse-stdin": runBatch,
	"daemon-mixed": runDaemon,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == spawnFlag {
		os.Exit(spawn(os.Args[2:]))
	}
	root := flag.String("root", ".", "repository checkout holding BENCHMARK.json and the built programs")
	workload := flag.String("workload", "", "tweets-file, sparse-stdin or daemon-mixed")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if err := run(*root, *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, workload string, seed int64, seconds, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	cfg := config{
		build:    filepath.Join(root, ".bench_build"),
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		trace:    trace == 1,
	}
	var err error
	cfg.declared, err = declaredMetrics(filepath.Join(root, "BENCHMARK.json"), cfg.trace)
	if err != nil {
		return err
	}
	cpu0 := hostCPU()
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	// Steal is CPU time the hypervisor gave to other guests; a run with
	// much of it measured a contended host, whatever the code did.
	out.note("host_steal_pct", stealPct(cpu0, hostCPU()))
	if out.ops.attempted > 0 {
		out.add("fail_ratio", out.ops.ratio(), "ratio")
	}
	host := hostInfo(cfg)
	for k, v := range out.info {
		host[k] = v
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "workload %s seed %d trace %d\n", workload, seed, trace)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hostJSON)
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, r := range out.ops.reasons {
		fmt.Fprintf(w, "failure: %s\n", r)
	}
	line, missing := resultLine(cfg.declared, out.metrics, out.ops)
	if len(missing) > 0 && out.ops.failed == 0 {
		return fmt.Errorf("run did not measure declared metrics %s", strings.Join(missing, ", "))
	}
	if out.ops.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if err := record(cfg, out, host); err != nil {
		return err
	}
	if out.ops.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", out.ops.failed, out.ops.attempted)
	}
	return nil
}

// resultLine renders the last line of standard output: the tally and
// the declared metrics that were measured as finite numbers. It also
// names the declared metrics it had to leave out; a run with failures
// still prints its line, with "correct": false and what it measured.
func resultLine(declared, measured []metric, ops tally) (line []byte, missing []string) {
	byName := map[string]metric{}
	for _, m := range measured {
		byName[m.Name] = m
	}
	last := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{ops.failed == 0, ops.attempted, ops.failed, map[string]reported{}}
	for _, d := range declared {
		m, ok := byName[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, d.Name)
			continue
		}
		last.Metrics[d.Name] = reported{m.Value, m.Unit}
	}
	line, _ = json.Marshal(last) // only finite numbers and strings: cannot fail
	return line, missing
}

// declaredMetrics reads the metrics BENCHMARK.json declares for the
// mode: end_to_end untraced, per_layer traced.
func declaredMetrics(path string, traced bool) ([]metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// hostInfo is the metadata recorded with every result.
func hostInfo(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"workload":   cfg.workload,
	}
}

// hostCPU reads the aggregate CPU tick counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal); nil if unreadable.
func hostCPU() []int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	ticks := make([]int64, 8)
	for i := range ticks {
		ticks[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return ticks
}

// stealPct is the share of host CPU time stolen between two readings.
func stealPct(a, b []int64) float64 {
	if a == nil || b == nil {
		return -1
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(b[7]-a[7]) / float64(total)
}

// record writes the run's metrics and host metadata, and for traced
// runs its spans, under the build directory.
func record(cfg config, out *outcome, host map[string]any) error {
	dir := filepath.Join(cfg.build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, mode)
	metrics := map[string]reported{}
	for _, m := range out.metrics {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) { // JSON has no NaN or Inf
			metrics[m.Name] = reported{m.Value, m.Unit}
		}
	}
	raw, err := json.MarshalIndent(map[string]any{"host": host, "metrics": metrics,
		"attempted": out.ops.attempted, "failed": out.ops.failed}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), raw, 0o644); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	spans, err := json.Marshal(out.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".spans.json"), spans, 0o644)
}
