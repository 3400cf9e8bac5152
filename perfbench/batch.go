package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"syscall"
	"time"
)

// setupPerRun is how many one-document launches precede each corpus run.
// A launch takes a few milliseconds, so one scheduler hiccup moves a
// single sample by half; many samples, spread over the run, keep the
// median from resting on one moment of the host's load.
const setupPerRun = 12

// spawnFlag selects the helper mode that runs a measured child (see spawn).
const spawnFlag = "-spawn"

// procRun is one finished child process.
type procRun struct {
	wall time.Duration // launch to exit
	cpu  time.Duration // user + system
	rss  int64         // peak resident set, bytes
	out  []byte
	err  error
}

// spawnReport is what the helper measured about its child.
type spawnReport struct {
	WallNs, CPUNs, MaxRSSKiB int64
	Err                      string
}

// spawn is the helper mode: it runs args on this process's standard
// streams and writes the child's wall time and rusage as JSON to fd 3.
// Running the child from this small, freshly started process keeps its
// Maxrss exact: Linux charges a vfork child the peak of the address
// space it replaces at exec, which in the benchmark process includes
// the generated corpora.
func spawn(args []string) int {
	report := os.NewFile(3, "report")
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	rep := spawnReport{WallNs: time.Since(start).Nanoseconds()}
	if err != nil {
		rep.Err = err.Error()
	}
	if cmd.ProcessState == nil {
		return 1
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
		rep.MaxRSSKiB = ru.Maxrss
	}
	if err := json.NewEncoder(report).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// runProc runs bin with args through the spawn helper, feeding stdin
// through a pipe when it is non-nil, and collects its standard output.
func runProc(bin string, args []string, stdin []byte) procRun {
	self, err := os.Executable()
	if err != nil {
		return procRun{err: err}
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return procRun{err: err}
	}
	defer pr.Close()
	cmd := exec.Command(self, append([]string{spawnFlag, bin}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.ExtraFiles = []*os.File{pw}
	if stdin != nil {
		// A bytes.Reader is not an *os.File, so exec feeds it through a
		// pipe: the child sees a real pipe on stdin, as with `cat f | jsinfer`.
		cmd.Stdin = bytes.NewReader(stdin)
	}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		return procRun{err: err}
	}
	var rep spawnReport
	repErr := json.NewDecoder(pr).Decode(&rep)
	if err := errors.Join(cmd.Wait(), repErr); err != nil {
		return procRun{err: fmt.Errorf("%s helper: %v", bin, err)}
	}
	r := procRun{wall: time.Duration(rep.WallNs), cpu: time.Duration(rep.CPUNs), rss: rep.MaxRSSKiB * 1024, out: out.Bytes()}
	if rep.Err != "" {
		r.err = fmt.Errorf("%s: %s: %s", bin, rep.Err, bytes.TrimSpace(errb.Bytes()))
	}
	return r
}

// check records the run in t: a failure on a non-zero exit or on
// output that differs from want.
func (r procRun) check(t *tally, what, want string) {
	switch {
	case r.err != nil:
		t.add(fmt.Sprintf("%s: %v", what, r.err))
	case string(r.out) != want:
		t.add(fmt.Sprintf("%s: schema differs from the DOM oracle (%d bytes vs %d)", what, len(r.out), len(want)))
	default:
		t.add("")
	}
}

// batchArgs is the jsinfer command line of a batch workload; file is
// passed as an argument for tweets-file and piped on stdin otherwise.
func batchArgs(workload, file string) (args []string, viaStdin bool) {
	if workload == "sparse-stdin" {
		return []string{"-stream", "-engine", "parametric-K"}, true
	}
	return []string{"-stream", file}, false
}

// runBatch measures jsinfer on the tweets-file or sparse-stdin corpus.
func runBatch(cfg config) (*outcome, error) {
	c, err := batchCorpus(cfg.build+"/corpus", cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceBatch(cfg, c)
	}
	out := &outcome{}
	out.note("corpus_bytes", len(c.data))
	out.note("corpus_docs", c.docs)
	jsinfer := cfg.bin("jsinfer")

	// Set-up: the same command on a one-document input.
	one := cfg.build + "/corpus/" + cfg.workload + "-one.ndjson"
	if err := os.WriteFile(one, c.first, 0o644); err != nil {
		return nil, err
	}
	setupArgs, viaStdin := batchArgs(cfg.workload, one)
	var setupIn []byte
	if viaStdin {
		setupIn = c.first
	}
	var setup []float64
	// Collect the garbage of input generation (and return it to the OS)
	// before timing, so the collection does not overlap the first runs.
	debug.FreeOSMemory()
	// Measurement: whole-corpus runs, each after setupPerRun set-up
	// launches, until the next one would overrun the run length (at
	// least one).
	var mbps, cpuPerMB, rss, walls []float64
	mb := float64(len(c.data)) / 1e6
	start := time.Now()
	var last time.Duration
	for len(mbps) == 0 || time.Since(start)+last <= cfg.seconds {
		for range setupPerRun {
			r := runProc(jsinfer, setupArgs, setupIn)
			r.check(&out.ops, "one-document run", c.firstOracle)
			setup = append(setup, r.wall.Seconds())
		}
		args, _ := batchArgs(cfg.workload, c.path)
		var stdin []byte
		if viaStdin {
			stdin = c.data
		}
		r := runProc(jsinfer, args, stdin)
		r.check(&out.ops, "corpus run", c.oracle)
		last = r.wall
		walls = append(walls, r.wall.Seconds())
		mbps = append(mbps, mb/r.wall.Seconds())
		cpuPerMB = append(cpuPerMB, ms(r.cpu)/mb)
		rss = append(rss, float64(r.rss)/1e6)
	}
	out.note("corpus_run_wall_s", walls)
	out.add("throughput_mb_s", median(mbps), "MB/s")
	out.add("cpu_ms_per_mb", median(cpuPerMB), "ms/MB")
	out.add("peak_rss_mb", median(rss), "MB")
	out.add("setup_s", median(setup), "s")
	return out, nil
}
