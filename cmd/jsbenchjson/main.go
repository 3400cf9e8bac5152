// Command jsbenchjson turns `go test -bench -json` output into a
// machine-readable benchmark report: it reads the test2json event
// stream on stdin, extracts the benchmark result lines, and writes one
// JSON array of rows — name, iterations, ns/op, MB/s, B/op, allocs/op
// — to the -out file (stdout with -out -). The Makefile's bench-json
// target drives it to emit BENCH_10.json, the perf-trajectory artifact
// CI uploads on every build:
//
//	go test -run '^$' -bench BenchmarkE3StreamingInference -benchmem -json . |
//	    go run repro/cmd/jsbenchjson -out BENCH_10.json
//
// Only rows are recorded — test2json wraps every output line in an
// event, so the filter keys on the canonical `BenchmarkName<tab>...`
// shape and tolerates arbitrary interleaved noise (GOMAXPROCS lines,
// metrics, PASS/ok).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// testEvent is the subset of the test2json event schema we consume.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// row is one benchmark result.
type row struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

func main() {
	out := flag.String("out", "-", "output file (- for stdout)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("jsbenchjson: ")

	rows, err := parseEvents(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "jsbenchjson: wrote %d rows to %s\n", len(rows), *out)
}

// parseEvents drains a test2json stream and returns the benchmark rows
// found in its output events. The testing package flushes a benchmark's
// name before its numbers, so one result line typically arrives as two
// or more output events; the events' Output fields are stitched back
// into the original byte stream before line parsing. Input lines that
// are not valid JSON events are tolerated and treated as plain
// benchmark output, so the tool also accepts raw `go test -bench`
// output.
func parseEvents(r io.Reader) ([]row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var output strings.Builder
	for sc.Scan() {
		line := sc.Text()
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err == nil && ev.Action != "" {
			if ev.Action == "output" {
				output.WriteString(ev.Output)
			}
			continue
		}
		output.WriteString(line)
		output.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rows := make([]row, 0, 16)
	for _, line := range strings.Split(output.String(), "\n") {
		if b, ok := parseBenchLine(line); ok {
			rows = append(rows, b)
		}
	}
	return rows, nil
}

// parseBenchLine parses one canonical benchmark result line:
//
//	BenchmarkFoo/bar-8   100   123456 ns/op   55.5 MB/s   987 B/op   42 allocs/op
//
// Trailing custom metrics (b.ReportMetric units) are ignored.
func parseBenchLine(line string) (row, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return row{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return row{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return row{}, false
	}
	b := row{Name: fields[0], Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "MB/s":
			b.MBPerS = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, true
}
