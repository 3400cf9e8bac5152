package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon/intake"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mison"
	"repro/internal/mmapio"
	"repro/internal/registry"
	"repro/internal/typelang"
)

// Traced runs call each layer's public functions on the workload's
// inputs, with a benchmark-side span around every call. The program
// itself is not instrumented beyond its own public hooks
// (StreamOptions.Stats, CollectionOptions.Observer).
//
// A span's name starts with the layer it charges: self.<layer>_ms sums
// the self time of that layer's spans. Calls that run the whole
// pipeline at once (the core facade, the registry's pipeline stage) are
// named under "bench", which no self figure reports: from outside, their
// time cannot be split by layer. The facade's own share is instead its
// one-worker call's time minus the stage clocks that call reports.

const (
	tracePrefix = 4 << 20 // bytes of a batch corpus the traced layers process per repetition
	splitBlock  = 64 << 10
	batteryTime = 0.6  // share of the run spent repeating the in-process layers
	driveTime   = 0.25 // share of the run spent driving jsinferd
)

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id; end closes it. A nil recorder
// keeps no spans: the untraced battery runs on one.
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	now := time.Since(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// timed runs f under a span and returns the span's duration.
func (r *recorder) timed(name string, parent, req int, f func(id int)) time.Duration {
	if r == nil {
		t := time.Now()
		f(-1)
		return time.Since(t)
	}
	id := r.begin(name, parent, req)
	f(id)
	return r.end(id)
}

// add records a span whose interval was measured elsewhere (the load
// generator's requests).
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// layerSelf sums self time per layer (the span name up to its first
// dot) over the spans of request req.
func layerSelf(spans []span, req int) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Req == req {
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer] += time.Duration(self[s.ID])
		}
	}
	return out
}

// traceInput is what the traced layers run on: a whole-document slice
// of the workload's bytes, read the way the workload reads it, and the
// ingest bodies the registry, intake and daemon layers take.
type traceInput struct {
	data    []byte
	file    string // data on disk (for the mmap route)
	corpus  string // the workload's full input file (mmapio.Map)
	route   string // "mmap", "reader" or "bodies"
	engine  core.Engine
	eq      typelang.Equiv
	oracle  string // DOM oracle of data
	bodies  []body
	daemonA []string // extra jsinferd flags
}

func traceBatch(cfg config, c *corpus) (*outcome, error) {
	prefix := prefixLines(c.data, tracePrefix)
	docs, err := jsontext.ParseLines(prefix)
	if err != nil {
		return nil, err
	}
	_, eq, _ := batchGenerator(cfg.workload, cfg.seed)
	in := traceInput{data: prefix, corpus: c.path, eq: eq, engine: core.ParametricL, route: "mmap",
		oracle: infer.InferParallel(docs, infer.Options{Equiv: eq}).String() + "\n"}
	if in.bodies, err = bodiesFromLines(prefix, bodyPool, eq); err != nil {
		return nil, err
	}
	if cfg.workload == "sparse-stdin" {
		in.engine, in.route, in.daemonA = core.ParametricK, "reader", []string{"-engine", "parametric-K"}
	}
	in.file = filepath.Join(cfg.build, "corpus", cfg.workload+"-prefix.ndjson")
	if err := os.WriteFile(in.file, prefix, 0o644); err != nil {
		return nil, err
	}
	return traceRun(cfg, in)
}

func traceDaemon(cfg config, pool []body) (*outcome, error) {
	var data []byte
	var all []int
	for i, b := range pool {
		data = append(data, b.identity...)
		all = append(all, i)
	}
	t, _ := foldBodies(pool, all, typelang.EquivLabel)
	in := traceInput{data: data, engine: core.ParametricL, eq: typelang.EquivLabel, route: "bodies",
		oracle: t.String() + "\n", bodies: pool,
		file: filepath.Join(cfg.build, "corpus", "daemon-mixed-pool.ndjson")}
	in.corpus = in.file
	if err := os.MkdirAll(filepath.Dir(in.file), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.file, data, 0o644); err != nil {
		return nil, err
	}
	return traceRun(cfg, in)
}

func traceRun(cfg config, in traceInput) (*outcome, error) {
	rec := &recorder{t0: time.Now()}
	out := &outcome{}
	out.note("trace_input_bytes", len(in.data))

	// Each repetition runs the battery twice, traced (spans and Stats)
	// and untraced, in alternating order; trace.overhead_pct is the
	// median of the paired differences.
	var reps []map[string]float64
	var overhead []float64
	start := time.Now()
	budget := time.Duration(batteryTime * float64(cfg.seconds))
	var last time.Duration
	for r := 0; r == 0 || time.Since(start)+last <= budget; r++ {
		t0 := time.Now()
		var vals map[string]float64
		var traced, untraced time.Duration
		for i := range 2 {
			var err error
			t := time.Now()
			if (r+i)%2 == 0 {
				vals, err = battery(rec, r, in, &out.ops)
				traced = time.Since(t)
			} else {
				_, err = battery(nil, r, in, &out.ops)
				untraced = time.Since(t)
			}
			if err != nil {
				return nil, err
			}
		}
		reps = append(reps, vals)
		overhead = append(overhead, 100*(traced-untraced).Seconds()/untraced.Seconds())
		last = time.Since(t0)
	}
	out.note("trace_repetitions", len(reps))

	// One drive of the real daemon with the same bodies.
	d, err := startDaemon(cfg.bin("jsinferd"), in.daemonA...)
	if err != nil {
		return nil, err
	}
	lg := newLoadgen(d.base, in.bodies)
	lg.create(&out.ops)
	k, _ := lg.closedLoop(0, 300*time.Millisecond, &out.ops)
	n := int(offeredRate * driveTime * cfg.seconds.Seconds())
	open := lg.openLoop(k, n, offeredRate, &out.ops)
	lg.verify(in.eq, &out.ops)
	d.stop()
	drive := len(reps)
	for i, o := range append(open.ingest, open.get...) {
		root := rec.add("loadgen.request", -1, drive+i, o.due, o.done)
		rec.add("jsinferd.request", root, drive+i, o.sent, o.done)
	}
	var ingest []float64
	for _, o := range open.ingest {
		ingest = append(ingest, o.latencyMs())
	}

	for _, m := range cfg.declared {
		switch m.Name {
		case "jsinferd.http_overhead_ms":
			out.add(m.Name, percentile(ingest, 50)-median(column(reps, "registry.ingest_ms")), m.Unit)
		case "loadgen.late_p99_ms":
			out.add(m.Name, lateP99(open), m.Unit)
		case "loadgen.backlog":
			out.add(m.Name, float64(open.backlog), m.Unit)
		case "trace.overhead_pct":
			out.add(m.Name, median(overhead), m.Unit)
		default:
			if xs := column(reps, m.Name); len(xs) > 0 {
				out.add(m.Name, median(xs), m.Unit)
			}
		}
	}
	out.spans = rec.spans
	return out, nil
}

// battery runs every in-process layer once over in, as request req,
// and returns the repetition's figures keyed by metric name. With a nil
// recorder it runs the same calls with no spans, no Stats and no
// registry observer: the untraced side of trace.overhead_pct.
func battery(rec *recorder, req int, in traceInput, ops *tally) (map[string]float64, error) {
	v := map[string]float64{}
	mb := float64(len(in.data)) / 1e6
	root := rec.begin("battery", -1, req)

	// mmapio: map and unmap the workload's input file.
	f, err := os.Open(in.corpus)
	if err != nil {
		return nil, err
	}
	var mapErr error
	d := rec.timed("mmapio.Map", root, req, func(int) {
		var m *mmapio.Mapping
		if m, mapErr = mmapio.Map(f); mapErr == nil {
			mapErr = m.Close()
		}
	})
	f.Close()
	if mapErr != nil {
		return nil, mapErr
	}
	v["mmapio.map_us"] = float64(d) / 1e3

	// mison split: document boundaries block by block.
	var ends []int
	d = rec.timed("mison.split", root, req, func(int) {
		ch := mison.NewChunker()
		var dst []int
		for off := 0; off < len(in.data); off += splitBlock {
			dst = ch.Splits(in.data[off:min(off+splitBlock, len(in.data))], dst[:0])
			for _, e := range dst {
				ends = append(ends, off+e)
			}
		}
	})
	v["mison.split_mb_s"] = mb / d.Seconds()

	// Per chunk of infer.DefaultBatch documents: lex alone (skipping
	// string payloads, as the absorber reads values), then absorb into
	// one long-lived accumulator (lexing again inside), seal, reset and
	// hand the sealed type to a collector — the worker's cycle.
	ts := mison.NewTokenSource()
	ts.SetInternStrings(true)
	acc := typelang.NewAccum(in.eq)
	col := infer.NewShardedCollector(0, in.eq)
	var lex, absorb time.Duration
	var seal, reset, collect, fuse, perDoc []float64
	var delegations int64
	docs, prev := 0, 0
	for i := infer.DefaultBatch - 1; prev < len(in.data); i += infer.DefaultBatch {
		end := len(in.data)
		if i < len(ends) {
			end = ends[i]
		}
		chunk := in.data[prev:end]
		prev = end
		var lexErr, absErr error
		dl := rec.timed("mison.lex", root, req, func(int) {
			if lexErr = ts.Reset(chunk, 0); lexErr != nil {
				return
			}
			for {
				tok, err := ts.ReadTokenSkipString()
				if err != nil || tok.Kind == jsontext.TokEOF {
					lexErr = err
					return
				}
			}
		})
		delegations += ts.TakeDelegations()
		n := 0
		da := rec.timed("typelang.absorb", root, req, func(int) {
			if absErr = ts.Reset(chunk, 0); absErr != nil {
				return
			}
			for {
				if err := infer.AbsorbFromTokens(ts, acc); err != nil {
					if !errors.Is(err, io.EOF) {
						absErr = err
					}
					return
				}
				n++
			}
		})
		ts.TakeDelegations()
		if err := errors.Join(lexErr, absErr); err != nil {
			return nil, err
		}
		var sealed *typelang.Type
		ds := rec.timed("typelang.seal", root, req, func(int) { sealed = acc.Seal() })
		dr := rec.timed("typelang.reset", root, req, func(int) { acc.Reset() })
		dc := rec.timed("infer.collect", root, req, func(int) { col.Add(sealed, int64(n)) })
		lex, absorb, docs = lex+dl, absorb+da, docs+n
		seal, reset, collect = append(seal, us(ds)), append(reset, us(dr)), append(collect, us(dc))
		perDoc = append(perDoc, float64(da+ds+dr)/float64(max(n, 1)))
		if len(collect)%8 == 0 {
			col.Flush()
			fuse = append(fuse, ms(rec.timed("infer.fuse", root, req, func(int) { col.Snapshot() })))
		}
	}
	final, _ := col.Close()
	v["mison.lex_mb_s"] = mb / lex.Seconds()
	v["mison.scan_delegations"] = float64(delegations)
	v["typelang.absorb_ns_per_doc"] = float64(absorb-lex) / float64(docs)
	v["typelang.absorb_growth"] = growth(perDoc)
	v["typelang.seal_us"] = median(seal)
	v["typelang.reset_us"] = median(reset)
	v["typelang.schema_nodes"] = float64(final.Size())
	v["infer.collect_us"] = median(collect)
	v["infer.fuse_ms"] = median(fuse)
	ops.add(oracleCheck("worker cycle", final.String()+"\n", in.oracle))

	// core: the workload's own route through the facade, with the
	// pipeline's stage clocks; then the same call with one worker.
	var st, st1 *core.PipelineStats
	if rec != nil {
		st, st1 = &core.PipelineStats{}, &core.PipelineStats{}
	}
	var types []*typelang.Type
	var coreErr error
	dDefault := rec.timed("bench.core_stream", root, req, func(int) {
		types, coreErr = streamRoute(in, core.StreamOptions{Stats: st})
	})
	if coreErr != nil {
		return nil, coreErr
	}
	result := typelang.Bottom
	for _, t := range types {
		result = typelang.Merge(result, t, in.eq)
	}
	var rendered string
	d = rec.timed("jsinfer.render", root, req, func(int) { rendered = result.String() + "\n" })
	v["jsinfer.render_ms"] = ms(d)
	ops.add(oracleCheck("core stream", rendered, in.oracle))
	dOne := rec.timed("bench.core_stream_1worker", root, req, func(int) {
		_, coreErr = streamRoute(in, core.StreamOptions{Workers: 1, Stats: st1})
	})
	if coreErr != nil {
		return nil, coreErr
	}
	v["infer.parallel_speedup"] = dOne.Seconds() / dDefault.Seconds()
	if rec != nil {
		s := st.Snapshot()
		v["infer.read_ms"] = ms(time.Duration(s.ReadNanos))
		v["infer.split_ms"] = ms(time.Duration(s.SplitNanos))
		v["infer.map_ms"] = ms(time.Duration(s.MapNanos))
		v["infer.reduce_ms"] = ms(time.Duration(s.ReduceNanos))
		v["infer.fuse_stage_ms"] = ms(time.Duration(s.FuseNanos))
		v["infer.chunks"] = float64(s.ChunksSplit)
		v["infer.seals"] = float64(s.Seals)
		v["infer.bytes_copied"] = float64(s.BytesCopied)
		// With one worker the stages run one after another, so what the
		// call took beyond them is the facade's own work (opening and
		// mapping files, setting up the engine, building the result's
		// JSON Schema).
		s1 := st1.Snapshot()
		stages := s1.ReadNanos + s1.SplitNanos + s1.MapNanos + s1.ReduceNanos + s1.FuseNanos
		v["self.core_ms"] = ms(max(dOne-time.Duration(stages), 0))
	}

	// intake: every body decoded through the daemon's intake, both ways.
	for _, gz := range []bool{true, false} {
		name, key := "intake.identity", "intake.identity_mb_s"
		if gz {
			name, key = "intake.gzip", "intake.gzip_mb_s"
		}
		var decoded int64
		var bodyErr error
		d = rec.timed(name, root, req, func(int) {
			for _, b := range in.bodies {
				payload := b.identity
				r := httptest.NewRequest("POST", "/v1/collections/c/ingest", nil)
				if gz {
					payload = b.gzipped
					r.Header.Set("Content-Encoding", "gzip")
				}
				r.Body = io.NopCloser(bytes.NewReader(payload))
				rc, err := intake.Body(httptest.NewRecorder(), r, 0)
				if err != nil {
					bodyErr = err
					return
				}
				n, err := io.Copy(io.Discard, rc)
				rc.Close()
				if err != nil || n != int64(len(b.identity)) {
					bodyErr = fmt.Errorf("intake decoded %d of %d bytes: %v", n, len(b.identity), err)
					return
				}
				decoded += n
			}
		})
		if bodyErr != nil {
			return nil, bodyErr
		}
		v[key] = float64(decoded) / 1e6 / d.Seconds()
	}

	// registry: the bodies ingested in process over the daemon's
	// collections, a snapshot read after every getEvery ingests, stages
	// observed through CollectionOptions.Observer.
	reg := registry.New(registry.Options{Equiv: in.eq})
	var ingest, quota, pipeline, flush, get []float64
	stageSamples := map[string]*[]float64{"quota": &quota, "pipeline": &pipeline, "flush": &flush}
	gets := 0
	for i, b := range in.bodies {
		name := fmt.Sprintf("c%d", i%collections)
		var ingErr error
		d = rec.timed("registry.ingest", root, req, func(id int) {
			obs := func(stage string) func() {
				span := "registry." + stage
				if stage == "pipeline" {
					span = "bench.registry_pipeline" // lex, absorb and collect of the body
				}
				sid := rec.begin(span, id, req)
				return func() {
					d := rec.end(sid)
					if xs := stageSamples[stage]; xs != nil {
						*xs = append(*xs, float64(d))
					}
				}
			}
			opts := registry.CollectionOptions{Observer: obs}
			if rec == nil {
				opts.Observer = nil
			}
			_, ingErr = reg.IngestWith(name, bytes.NewReader(b.identity), opts)
		})
		if ingErr != nil {
			return nil, ingErr
		}
		ingest = append(ingest, ms(d))
		if i%getEvery == getEvery-1 {
			c := fmt.Sprintf("c%d", gets%collections)
			gets++
			get = append(get, us(rec.timed("registry.get", root, req, func(int) { reg.Get(c) })))
		}
	}
	var fuses int64
	for c := range collections {
		var accepted []int
		for i := c; i < len(in.bodies); i += collections {
			accepted = append(accepted, i)
		}
		want, docs := foldBodies(in.bodies, accepted, in.eq)
		snap, _ := reg.Get(fmt.Sprintf("c%d", c))
		fuses += snap.Pipeline.RootFuses
		if snap.Docs != int64(docs) {
			ops.add(fmt.Sprintf("registry c%d: %d documents, oracle %d", c, snap.Docs, docs))
			continue
		}
		ops.add(oracleCheck(fmt.Sprintf("registry c%d", c), snap.Type.StringCounted(), want.StringCounted()))
	}
	reg.Close()
	v["registry.ingest_ms"] = median(ingest)
	v["registry.quota_us"] = median(quota) / 1e3
	v["registry.pipeline_ms"] = median(pipeline) / 1e6
	v["registry.flush_ms"] = median(flush) / 1e6
	v["registry.get_us"] = median(get)
	v["registry.fuse_per_get"] = float64(fuses) / float64(max(gets, 1))

	rec.end(root)
	if rec == nil {
		return v, nil
	}
	// Self time per layer. The absorb spans lex their chunk again inside
	// (tokens are pulled lazily), so that share — measured by the lex
	// spans over the same bytes — is moved from typelang to mison.
	self := layerSelf(rec.snapshot(), req)
	self["typelang"] -= lex
	for layer, d := range self {
		if layer != "bench" {
			v["self."+layer+"_ms"] = ms(d)
		}
	}
	return v, nil
}

// column collects one figure from every repetition that measured it.
func column(reps []map[string]float64, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if x, ok := r[name]; ok {
			xs = append(xs, x)
		}
	}
	return xs
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// streamRoute runs the facade the way the workload feeds it: a mapped
// file, a pipe-like reader, or one reader per ingest body. It returns
// one inferred type per facade call; the caller merges them, outside
// the timed span.
func streamRoute(in traceInput, opts core.StreamOptions) ([]*typelang.Type, error) {
	switch in.route {
	case "mmap":
		opts.Mmap = core.MmapOn
		res, _, err := core.InferSchemaStreamFilesWith([]string{in.file}, in.engine, opts)
		if err != nil {
			return nil, err
		}
		return []*typelang.Type{res.Type}, nil
	case "reader":
		// Hide bytes.Reader's WriterTo so the pipeline sees a plain stream.
		res, _, err := core.InferSchemaStreamWith(struct{ io.Reader }{bytes.NewReader(in.data)}, in.engine, opts)
		if err != nil {
			return nil, err
		}
		return []*typelang.Type{res.Type}, nil
	}
	var types []*typelang.Type
	for _, b := range in.bodies {
		res, _, err := core.InferSchemaStreamWith(bytes.NewReader(b.identity), in.engine, opts)
		if err != nil {
			return nil, err
		}
		types = append(types, res.Type)
	}
	return types, nil
}

// growth is the mean per-document cost over the last tenth of the
// chunks divided by that over the first tenth (at least one chunk each).
func growth(perDoc []float64) float64 {
	k := max(1, len(perDoc)/10)
	var first, last float64
	for i := range k {
		first += perDoc[i]
		last += perDoc[len(perDoc)-1-i]
	}
	return last / first
}

// oracleCheck is "" when got matches the DOM oracle.
func oracleCheck(what, got, want string) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("%s: schema differs from the DOM oracle", what)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
