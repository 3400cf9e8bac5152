// Command jsinferd is the schema-inference ingest daemon: a long-running
// HTTP service over the live-merge registry (internal/registry). Clients
// stream NDJSON at named collections and read back the monotonically
// growing schema at any time, in any of jsinfer's output formats — the
// batch CLI turned into a service, with byte-identical schemas.
//
// Usage:
//
//	jsinferd [-addr :8787] [-engine parametric-L|parametric-K]
//	         [-workers N] [-shards N] [-tokenizer mison|scan]
//	         [-map fused|indexed|refmap]
//	         [-max-body N] [-rate-docs N] [-rate-bytes N]
//	         [-log-format text|json] [-slow-request D]
//	         [-trace-buffer N] [-debug-addr addr]
//
// Observability (see docs/ARCHITECTURE.md, "Observability"):
//
//   - Logs go to stderr through log/slog; -log-format picks text
//     (default) or json. Every request logs one line with method, route
//     pattern, status, duration and trace ID; a request slower than
//     -slow-request additionally logs at warning level (0 disables).
//   - Every request runs under a span tracer: an incoming W3C
//     traceparent header is joined (the response echoes the daemon's
//     own traceparent either way), ingest requests grow child spans per
//     stage (admission → decode → quota → ingest → flush) with document,
//     byte and index-fallback attributes, and the last -trace-buffer
//     finished traces are served as JSON from GET /debug/traces.
//   - -debug-addr (off by default) serves net/http/pprof on a separate
//     listener, keeping profiling off the public API surface.
//
// API:
//
//	PUT /v1/collections/{name}[?equiv=K|L][&quota=docs=N,bytes=N]
//	    Creates the collection without ingesting — under the given
//	    merge equivalence when ?equiv= is set, the daemon default
//	    otherwise. 201 on creation, 200 when it already exists with a
//	    compatible equivalence, 409 when ?equiv= disagrees with the
//	    equivalence the collection was created under. ?quota= pins a
//	    per-collection ingest rate limit overriding the daemon's
//	    -rate-docs/-rate-bytes defaults (0 or an empty value lifts the
//	    limit); on an existing collection it re-targets the live quota
//	    in place.
//	POST /v1/collections/{name}/ingest[?equiv=K|L][&quota=...]
//	    Body: NDJSON or concatenated JSON, streamed straight into the
//	    chunked token pipeline (bounded memory; the body is never
//	    materialised). Content-Encoding: gzip and zstd bodies decode
//	    transparently — schemas and doc counts are byte-identical to
//	    the identity encoding, and -max-body applies to *decompressed*
//	    bytes, so a compressed body cannot smuggle past the limit. An
//	    unsupported encoding yields 415 before any byte is read; so
//	    does an entropy-coded zstd frame mid-stream (the built-in
//	    decoder handles store-mode frames; see internal/daemon/intake).
//	    With ?equiv=, a collection created by this call folds under
//	    that equivalence instead of the daemon default; on an existing
//	    collection a disagreeing ?equiv= yields 409 before any byte is
//	    read. A collection over its ingest quota yields 429 with a
//	    Retry-After header, likewise before any body byte is read.
//	    Returns a JSON summary {collection, docs, total_docs,
//	    version}. A malformed document merges exactly the documents
//	    before it and yields 400 with the absolute body offset; the
//	    collection keeps the prefix. With -max-body N, a body
//	    exceeding N (decoded) bytes yields 413 with the same
//	    bytes-kept semantics: the documents that fit under the limit
//	    are merged and reported.
//	DELETE /v1/collections/{name}
//	    Removes the collection and its accumulator (404 when the name
//	    is unknown). The name is immediately reusable; a later ingest
//	    starts from scratch.
//	GET /v1/collections/{name}/schema?output=type|counted|jsonschema|typescript|swift
//	    The live schema in jsinfer's output formats: text/plain for
//	    type/counted/typescript/swift, application/json for jsonschema.
//	    With ?meta=1, a JSON envelope with docs/version/schema instead.
//	GET /v1/collections
//	    JSON list of collections with docs/version/error counters and
//	    each collection's pipeline stage counters.
//	GET /v1/stats
//	    Registry-wide aggregates (collections, docs, bytes, ingests,
//	    errors, rate-limited rejections, interned symbols, sealed
//	    schema nodes) plus the aggregated pipeline flight recorder:
//	    chunk/doc counters, index fast-path vs token-fallback records,
//	    parity rejections, collector publishes and fuses, and
//	    per-stage clocks.
//	GET /debug/traces
//	    The most recent finished request traces (JSON, oldest first):
//	    span trees with per-stage timings and ingest attributes.
//	GET /metrics
//	    Prometheus text exposition (format 0.0.4): ingest volume and
//	    error counters, per-route request totals and latency
//	    histograms, live registry gauges, pipeline stage counters and
//	    runtime (goroutine/heap) gauges. The ingest and pipeline
//	    figures reconcile exactly with /v1/stats once in-flight
//	    requests quiesce.
//	GET /healthz
//	    Liveness.
//
// Concurrent ingests — to one collection or many — fold through each
// collection's sharded collector tree; schema reads are lock-free
// snapshots that never block ingest. See docs/ARCHITECTURE.md for the
// collector tree and the snapshot consistency model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon/intake"
	"repro/internal/daemon/metrics"
	"repro/internal/daemon/trace"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/registry"
	"repro/internal/typelang"
)

func main() {
	addr := flag.String("addr", ":8787", "listen address")
	engine := flag.String("engine", "parametric-L", "inference engine: parametric-L or parametric-K")
	workers := flag.Int("workers", 0, "parallel chunk workers per ingest request (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "leaf collectors per collection (0 = auto)")
	tokenizer := flag.String("tokenizer", "mison", "streamed lexing machinery: mison or scan")
	mapMode := flag.String("map", "fused", "ingest map phase: fused (default), indexed or refmap")
	maxBody := flag.Int64("max-body", 0, "max ingest request body in bytes (decoded, for compressed bodies); 0 disables the limit")
	rateDocs := flag.Float64("rate-docs", 0, "default per-collection ingest quota in documents/sec; 0 disables the limit")
	rateBytes := flag.Float64("rate-bytes", 0, "default per-collection ingest quota in decoded bytes/sec; 0 disables the limit")
	logFormat := flag.String("log-format", "text", "log line format: text or json")
	slowReq := flag.Duration("slow-request", 0, "log a warning for requests slower than this (0 disables)")
	traceBuf := flag.Int("trace-buffer", trace.DefaultCapacity, "finished request traces kept for /debug/traces")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this extra listener (empty disables)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsinferd: %v\n", err)
		os.Exit(1)
	}

	opts := registry.Options{
		Workers: *workers,
		Shards:  *shards,
		Quota:   registry.Quota{DocsPerSec: *rateDocs, BytesPerSec: *rateBytes},
	}
	switch *engine {
	case "parametric-L":
		opts.Equiv = typelang.EquivLabel
	case "parametric-K":
		opts.Equiv = typelang.EquivKind
	default:
		logger.Error("unknown engine (want parametric-L or parametric-K)", "engine", *engine)
		os.Exit(1)
	}
	switch *tokenizer {
	case "mison":
		opts.Tokenizer = core.TokenizerMison
	case "scan":
		opts.Tokenizer = core.TokenizerScan
	default:
		logger.Error("unknown tokenizer (want mison or scan)", "tokenizer", *tokenizer)
		os.Exit(1)
	}
	switch *mapMode {
	case "fused":
		opts.Map = core.MapFused
	case "indexed":
		opts.Map = core.MapIndexed
	case "refmap":
		opts.Map = core.MapReference
	default:
		logger.Error("unknown map mode (want fused, indexed or refmap)", "map", *mapMode)
		os.Exit(1)
	}

	reg := registry.New(opts)
	srv := &http.Server{Handler: newHandler(reg, handlerConfig{
		maxBody: *maxBody,
		logger:  logger,
		tracer:  trace.New(*traceBuf),
		slow:    *slowReq,
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		// Drain in-flight ingests: an interrupted POST would leave the
		// client unable to tell which prefix of its body was merged.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	}()

	if *debugAddr != "" {
		// pprof lives on its own listener, never on the API mux: an
		// operator opts in with -debug-addr (typically bound to
		// localhost) and profiling stays off the public surface.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		logger.Info("debug server listening (pprof)", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, newDebugHandler()); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	// Bind before announcing: the "listening" line only appears once the
	// socket is actually accepting, so scripts that wait for it (the
	// smoke test, container healthchecks) cannot race the bind — and a
	// bind failure is reported instead of a premature success line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "engine", *engine, "tokenizer", *tokenizer, "addr", ln.Addr().String())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	<-done
}

// newLogger builds the daemon's slog logger on stderr in the requested
// line format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// handlerConfig carries the daemon handler's cross-cutting dependencies
// — the seam that lets tests run with a discarded logger and a private
// tracer.
type handlerConfig struct {
	// maxBody > 0 caps the ingest request body in *decoded* bytes (the
	// -max-body backpressure flag); 0 means unlimited.
	maxBody int64
	// logger receives the per-request and slow-request lines; nil
	// discards them.
	logger *slog.Logger
	// tracer records request traces; nil mints a private tracer.
	tracer *trace.Tracer
	// slow is the slow-request warning threshold; 0 disables it.
	slow time.Duration
}

// newHandler builds the daemon's routing table over reg, instrumented
// end to end: every route is traced and metered, and the ingest path
// feeds the volume counters /metrics serves. It is the seam the tests
// drive through httptest.
func newHandler(reg *registry.Registry, cfg handlerConfig) http.Handler {
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.tracer == nil {
		cfg.tracer = trace.New(0)
	}
	prom := metrics.NewRegistry()
	// The ingest counters mirror the registry's own accounting, fed from
	// the same IngestResult, so after in-flight requests quiesce they
	// reconcile exactly with /v1/stats: docs/bytes include kept prefixes
	// of failed ingests, errors counts only failures that reached the
	// pipeline (not 409/429 admission rejections, which never read a
	// byte).
	ingestDocs := prom.Counter("jsinferd_ingest_docs_total",
		"Documents merged by ingest calls, kept prefixes of failed ingests included.")
	ingestBytes := prom.Counter("jsinferd_ingest_bytes_total",
		"Decoded payload bytes read by ingest calls.")
	ingestErrors := prom.Counter("jsinferd_ingest_errors_total",
		"Ingest calls that ended in a pipeline error (malformed document, over-limit or corrupt body).")
	rateLimited := prom.Counter("jsinferd_rate_limited_total",
		"Ingest requests rejected by a collection quota (429s).")
	// Every registry gauge of one scrape reads one registry.Stats taken
	// as the scrape starts: a single List, sort and schema-size walk per
	// scrape, and all the gauges report the same moment.
	var scraped registry.Stats
	prom.BeforeRender(func() { scraped = reg.Stats() })
	prom.Gauge("jsinferd_registry_collections", "Live collections.",
		func() float64 { return float64(scraped.Collections) })
	prom.Gauge("jsinferd_registry_docs", "Documents summarised across all collections.",
		func() float64 { return float64(scraped.Docs) })
	prom.Gauge("jsinferd_registry_schema_nodes", "Sealed schema nodes across all collection schemas.",
		func() float64 { return float64(scraped.SchemaNodes) })
	prom.Gauge("jsinferd_registry_symbols", "Interned key symbols in the shared symbol table.",
		func() float64 { return float64(scraped.Symbols) })
	// The pipeline flight recorder, aggregated across live collections.
	// Function-backed gauges reading the same registry snapshots
	// /v1/stats serves, so the two surfaces reconcile exactly once
	// ingest quiesces (counters reset when a collection is deleted,
	// exactly like the registry's own per-collection accounting).
	pipelineGauges(prom, func() core.StatsSnapshot { return scraped.Pipeline })
	// Runtime gauges back the -debug-addr pprof endpoints: the scrape
	// shows *that* goroutines or heap grew, the profiles show *why*.
	prom.Gauge("jsinferd_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	prom.Gauge("jsinferd_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	prom.Gauge("jsinferd_heap_objects", "Allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapObjects)
		})

	mux := http.NewServeMux()
	mux.Handle("GET /metrics", prom.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs("status", "ok"))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := reg.Stats()
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collections", st.Collections,
			"docs", st.Docs,
			"bytes", st.Bytes,
			"ingests", st.Ingests,
			"errors", st.Errors,
			"rate_limited", st.RateLimited,
			"symbols", st.Symbols,
			"schema_nodes", st.SchemaNodes,
			"pipeline", pipelineMeta(st.Pipeline),
		))
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		recent := cfg.tracer.Recent()
		items := make([]*jsonvalue.Value, len(recent))
		for i, tr := range recent {
			items[i] = traceMeta(tr.Info())
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"traces", jsonvalue.NewArray(items...)))
	})
	mux.HandleFunc("GET /v1/collections", func(w http.ResponseWriter, r *http.Request) {
		snaps := reg.List()
		items := make([]*jsonvalue.Value, len(snaps))
		for i, s := range snaps {
			items[i] = snapshotMeta(s)
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collections", jsonvalue.NewArray(items...)))
	})
	mux.HandleFunc("PUT /v1/collections/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if name == "" {
			writeError(w, http.StatusBadRequest, "empty collection name")
			return
		}
		co, err := collectionOpts(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		snap, created, err := reg.Create(name, co)
		if err != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		writeJSON(w, status, snapshotMeta(snap).WithField("created", jsonvalue.FromGo(created)))
	})
	mux.HandleFunc("POST /v1/collections/{name}/ingest", func(w http.ResponseWriter, r *http.Request) {
		tr := traceFrom(r.Context())
		admission := tr.StartSpan("admission", nil)
		name := r.PathValue("name")
		if name == "" {
			admission.End()
			writeError(w, http.StatusBadRequest, "empty collection name")
			return
		}
		co, err := collectionOpts(r)
		admission.End()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// intake.Body is lazy — headers only — so quota and equivalence
		// admission below still happen before any body byte is read.
		decode := tr.StartSpan("decode", nil)
		body, err := intake.Body(w, r, cfg.maxBody)
		decode.End()
		if err != nil {
			writeError(w, http.StatusUnsupportedMediaType, err.Error())
			return
		}
		if tr != nil {
			// The registry's stage observer hangs the quota/ingest/flush
			// spans off this request's trace; the registry itself stays
			// tracing-agnostic.
			co.Observer = func(stage string) func() {
				if stage == "pipeline" {
					stage = "ingest"
				}
				return tr.StartSpan(stage, nil).End
			}
		}
		res, err := reg.IngestWith(name, body, co)
		if root := tr.Root(); root != nil {
			root.SetAttr("collection", name)
			root.SetAttr("docs", int64(res.Docs))
			root.SetAttr("bytes", res.Bytes)
			root.SetAttr("index_records", res.Stats.IndexRecords)
			root.SetAttr("fallback_records", res.Stats.FallbackRecords)
			root.SetAttr("parity_rejects", res.Stats.ParityRejects)
		}
		// Kept prefixes of failed ingests count too: the documents are
		// merged, so the counters reflect them (and reconcile with
		// /v1/stats, which sees the same IngestResult accounting).
		ingestDocs.Add(uint64(res.Docs))
		ingestBytes.Add(uint64(res.Bytes))
		if err != nil {
			var rl *registry.RateLimitError
			if errors.As(err, &rl) {
				rateLimited.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rl.RetryAfter)))
				writeError(w, http.StatusTooManyRequests, err.Error())
				return
			}
			if errors.Is(err, registry.ErrEquivMismatch) {
				writeError(w, http.StatusConflict, err.Error())
				return
			}
			ingestErrors.Inc()
			// The prefix before the error is merged and kept; report
			// both the failure and how far ingest got. An over-limit
			// body surfaces as 413 with exactly the malformed-doc
			// bytes-kept semantics: the documents that fit are merged —
			// the limit counts decoded bytes, so compressed bodies get
			// identical treatment. An entropy-coded zstd frame the
			// built-in decoder gates maps to 415: re-send store-mode
			// zstd, gzip or identity.
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			switch {
			case errors.As(err, &tooBig):
				status = http.StatusRequestEntityTooLarge
			case errors.Is(err, intake.ErrZstdCompressedBlock):
				status = http.StatusUnsupportedMediaType
			}
			writeJSON(w, status, jsonvalue.ObjectFromPairs(
				"error", err.Error(),
				"collection", res.Collection,
				"docs", res.Docs,
				"total_docs", res.TotalDocs,
				"version", int64(res.Version),
			))
			return
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collection", res.Collection,
			"docs", res.Docs,
			"total_docs", res.TotalDocs,
			"version", int64(res.Version),
		))
	})
	mux.HandleFunc("DELETE /v1/collections/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !reg.Delete(name) {
			writeError(w, http.StatusNotFound, "unknown collection "+name)
			return
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collection", name,
			"deleted", true,
		))
	})
	mux.HandleFunc("GET /v1/collections/{name}/schema", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := reg.Get(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown collection "+r.PathValue("name"))
			return
		}
		output := r.URL.Query().Get("output")
		if output == "" {
			output = "type"
		}
		if r.URL.Query().Get("meta") != "" {
			rendered, err := renderSchema(snap.Type, output)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			meta := snapshotMeta(snap).WithField("schema", jsonvalue.FromGo(rendered))
			writeJSON(w, http.StatusOK, meta)
			return
		}
		switch output {
		case "jsonschema":
			writeJSON(w, http.StatusOK, core.TypeToJSONSchema(snap.Type))
		default:
			rendered, err := renderSchema(snap.Type, output)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			s, _ := rendered.(string)
			fmt.Fprintln(w, s)
		}
	})
	// Trace outermost: it clones the request to attach the trace
	// context, and the mux records the matched pattern on that clone, so
	// everything reading r.Pattern afterwards must sit inside the clone.
	return traceRequests(cfg, metrics.NewHTTP(prom, "jsinferd").Wrap(mux))
}

// newDebugHandler is the -debug-addr surface: net/http/pprof wired onto
// an explicit mux (never http.DefaultServeMux, never the API mux).
func newDebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traceKey carries the request's *trace.Trace through the context.
type traceKey struct{}

// traceFrom returns the request's trace, or nil outside the middleware
// (trace.Trace methods are nil-tolerant, so handlers never check).
func traceFrom(ctx context.Context) *trace.Trace {
	tr, _ := ctx.Value(traceKey{}).(*trace.Trace)
	return tr
}

// traceRequests wraps next so every request runs under a span: an
// incoming W3C traceparent joins the caller's trace, the response
// carries the daemon's own traceparent, the finished trace lands in the
// /debug/traces ring, and each request logs one structured line
// (warning-level past the -slow-request threshold).
func traceRequests(cfg handlerConfig, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
		tr := cfg.tracer.StartTrace(r.Method+" "+r.URL.Path, parent)
		w.Header().Set("Traceparent", tr.Root().Context().Traceparent())
		sw := &statusRecorder{ResponseWriter: w}
		r2 := r.WithContext(context.WithValue(r.Context(), traceKey{}, tr))
		next.ServeHTTP(sw, r2)
		// A matched pattern already carries its method ("GET /healthz");
		// only the unmatched bucket needs it prefixed.
		route := r2.Pattern
		name := route
		if route == "" {
			route = "unmatched"
			name = r.Method + " unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		root := tr.Root()
		root.SetName(name)
		root.SetAttr("method", r.Method)
		root.SetAttr("route", route)
		root.SetAttr("status", int64(status))
		tr.Finish()
		dur := tr.Duration()
		attrs := []any{
			"method", r.Method,
			"route", route,
			"status", status,
			"duration_ms", float64(dur.Nanoseconds()) / 1e6,
			"trace_id", tr.ID().String(),
		}
		cfg.logger.Info("request", attrs...)
		if cfg.slow > 0 && dur >= cfg.slow {
			cfg.logger.Warn("slow request",
				append(attrs, "threshold_ms", float64(cfg.slow.Nanoseconds())/1e6)...)
		}
	})
}

// statusRecorder records the status code a handler wrote, for the trace
// attributes and the request log line. Unwrap keeps
// http.ResponseController features reachable.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// collectionOpts parses the per-collection override parameters of a
// create or ingest request: ?equiv=K|L (the jsinfer engine names
// parametric-K/parametric-L are accepted too) pins the collection's
// merge equivalence, ?quota=docs=N,bytes=N its ingest rate limit (a
// bare ?quota= or all-zero terms lift the limit).
func collectionOpts(r *http.Request) (registry.CollectionOptions, error) {
	var co registry.CollectionOptions
	switch q := r.URL.Query().Get("equiv"); q {
	case "":
	case "K", "k", "parametric-K":
		e := typelang.EquivKind
		co.Equiv = &e
	case "L", "l", "parametric-L":
		e := typelang.EquivLabel
		co.Equiv = &e
	default:
		return co, fmt.Errorf("unknown equiv %q (want K or L)", q)
	}
	if r.URL.Query().Has("quota") {
		q, err := parseQuota(r.URL.Query().Get("quota"))
		if err != nil {
			return co, err
		}
		co.Quota = &q
	}
	return co, nil
}

// parseQuota parses the ?quota= override: comma-separated docs=N and
// bytes=N terms, each a non-negative per-second rate (0 = unlimited).
// The empty string is the all-zero quota — ?quota= lifts the limit.
func parseQuota(s string) (registry.Quota, error) {
	var q registry.Quota
	if s == "" {
		return q, nil
	}
	for _, term := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(term, "=")
		if !ok {
			return q, fmt.Errorf("bad quota term %q (want docs=N or bytes=N)", term)
		}
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil || rate < 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
			return q, fmt.Errorf("bad quota rate %q (want a non-negative number)", term)
		}
		switch k {
		case "docs":
			q.DocsPerSec = rate
		case "bytes":
			q.BytesPerSec = rate
		default:
			return q, fmt.Errorf("unknown quota key %q (want docs or bytes)", k)
		}
	}
	return q, nil
}

// retryAfterSeconds renders a recovery delay as a Retry-After value:
// whole seconds, rounded up so the advertised wait is never too short,
// and at least 1 (Retry-After: 0 invites an immediate, doomed retry).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// renderSchema renders t in one of jsinfer's output formats: a string
// for the text forms, a *jsonvalue.Value for jsonschema.
func renderSchema(t *core.Type, output string) (any, error) {
	switch output {
	case "type":
		return t.String(), nil
	case "counted":
		return t.StringCounted(), nil
	case "typescript":
		return core.TypeToTypeScript("Root", t), nil
	case "swift":
		return core.TypeToSwift("Root", t), nil
	case "jsonschema":
		return core.TypeToJSONSchema(t), nil
	default:
		return nil, fmt.Errorf("unknown output %q (want type, counted, jsonschema, typescript or swift)", output)
	}
}

// pipelineGauges registers the pipeline flight recorder's counters and
// stage clocks as function-backed families over snap — the /metrics
// face of the same numbers /v1/stats serves.
func pipelineGauges(prom *metrics.Registry, snap func() core.StatsSnapshot) {
	type row struct {
		name, help string
		get        func(core.StatsSnapshot) float64
	}
	rows := []row{
		{"jsinferd_pipeline_chunks_split_total", "Document-aligned byte chunks emitted to ingest worker pools.",
			func(s core.StatsSnapshot) float64 { return float64(s.ChunksSplit) }},
		{"jsinferd_pipeline_bytes_lexed_total", "Payload bytes handed to the map phase.",
			func(s core.StatsSnapshot) float64 { return float64(s.BytesLexed) }},
		{"jsinferd_pipeline_docs_absorbed_total", "Documents absorbed by the map phase (kept prefixes of failed ingests included).",
			func(s core.StatsSnapshot) float64 { return float64(s.DocsAbsorbed) }},
		{"jsinferd_pipeline_index_records_total", "Records absorbed entirely off the mison structural index.",
			func(s core.StatsSnapshot) float64 { return float64(s.IndexRecords) }},
		{"jsinferd_pipeline_fallback_records_total", "Records the index walk delegated to the token walker.",
			func(s core.StatsSnapshot) float64 { return float64(s.FallbackRecords) }},
		{"jsinferd_pipeline_parity_rejects_total", "Chunks the structural index rejected outright (odd quote parity).",
			func(s core.StatsSnapshot) float64 { return float64(s.ParityRejects) }},
		{"jsinferd_pipeline_scan_delegations_total", "Tokens the mison fast paths handed to the reference scanner.",
			func(s core.StatsSnapshot) float64 { return float64(s.ScanDelegations) }},
		{"jsinferd_pipeline_batch_publishes_total", "Collector-leaf publishes of sealed partials.",
			func(s core.StatsSnapshot) float64 { return float64(s.BatchPublishes) }},
		{"jsinferd_pipeline_root_fuses_total", "Root fuse passes over collector leaf partials.",
			func(s core.StatsSnapshot) float64 { return float64(s.RootFuses) }},
		{"jsinferd_pipeline_seals_total", "Accumulator seals across map, leaf publish and root fuse.",
			func(s core.StatsSnapshot) float64 { return float64(s.Seals) }},
		{"jsinferd_pipeline_bytes_aliased_total", "Chunk bytes emitted zero-copy, aliasing the input buffer.",
			func(s core.StatsSnapshot) float64 { return float64(s.BytesAliased) }},
		{"jsinferd_pipeline_bytes_copied_total", "Bytes moved during reader-path buffer compaction.",
			func(s core.StatsSnapshot) float64 { return float64(s.BytesCopied) }},
		{"jsinferd_pipeline_buffers_recycled_total", "Chunk arrays reacquired from the pool instead of allocated.",
			func(s core.StatsSnapshot) float64 { return float64(s.BuffersRecycled) }},
		{"jsinferd_pipeline_mmap_inputs_total", "Inputs served through a memory mapping.",
			func(s core.StatsSnapshot) float64 { return float64(s.MmapInputs) }},
		{"jsinferd_pipeline_reader_inputs_total", "Inputs served through the copying io.Reader path.",
			func(s core.StatsSnapshot) float64 { return float64(s.ReaderInputs) }},
		{"jsinferd_pipeline_read_seconds_total", "Reader-goroutine time blocked reading request bodies.",
			func(s core.StatsSnapshot) float64 { return float64(s.ReadNanos) / 1e9 }},
		{"jsinferd_pipeline_split_seconds_total", "Reader-goroutine time finding chunk boundaries.",
			func(s core.StatsSnapshot) float64 { return float64(s.SplitNanos) / 1e9 }},
		{"jsinferd_pipeline_map_seconds_total", "Worker time lexing and absorbing chunks.",
			func(s core.StatsSnapshot) float64 { return float64(s.MapNanos) / 1e9 }},
		{"jsinferd_pipeline_reduce_seconds_total", "Collector-leaf time absorbing committed results.",
			func(s core.StatsSnapshot) float64 { return float64(s.ReduceNanos) / 1e9 }},
		{"jsinferd_pipeline_fuse_seconds_total", "Root time fusing leaf partials.",
			func(s core.StatsSnapshot) float64 { return float64(s.FuseNanos) / 1e9 }},
	}
	for _, r := range rows {
		get := r.get
		prom.Gauge(r.name, r.help, func() float64 { return get(snap()) })
	}
}

// pipelineMeta is the JSON envelope of a pipeline stats snapshot — the
// shape shared by /v1/stats ("pipeline") and each collection's entry in
// /v1/collections.
func pipelineMeta(p core.StatsSnapshot) *jsonvalue.Value {
	return jsonvalue.ObjectFromPairs(
		"chunks_split", p.ChunksSplit,
		"bytes_lexed", p.BytesLexed,
		"docs_absorbed", p.DocsAbsorbed,
		"index_records", p.IndexRecords,
		"fallback_records", p.FallbackRecords,
		"parity_rejects", p.ParityRejects,
		"scan_delegations", p.ScanDelegations,
		"batch_publishes", p.BatchPublishes,
		"root_fuses", p.RootFuses,
		"seals", p.Seals,
		"bytes_aliased", p.BytesAliased,
		"bytes_copied", p.BytesCopied,
		"buffers_recycled", p.BuffersRecycled,
		"mmap_inputs", p.MmapInputs,
		"reader_inputs", p.ReaderInputs,
		"read_nanos", p.ReadNanos,
		"split_nanos", p.SplitNanos,
		"map_nanos", p.MapNanos,
		"reduce_nanos", p.ReduceNanos,
		"fuse_nanos", p.FuseNanos,
	)
}

// traceMeta is the JSON envelope of one finished trace for
// /debug/traces: the root duration up front, then every span with its
// offsets and attributes.
func traceMeta(info trace.TraceInfo) *jsonvalue.Value {
	spans := make([]*jsonvalue.Value, len(info.Spans))
	var start time.Time
	if len(info.Spans) > 0 {
		start = info.Spans[0].Start
	}
	for i, sp := range info.Spans {
		attrs := make(map[string]any, len(sp.Attrs))
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		spans[i] = jsonvalue.ObjectFromPairs(
			"name", sp.Name,
			"span_id", sp.SpanID,
			"parent_id", sp.ParentID,
			"offset_us", sp.Start.Sub(start).Microseconds(),
			"duration_us", sp.Duration.Microseconds(),
			"attrs", attrs,
		)
	}
	meta := jsonvalue.ObjectFromPairs(
		"trace_id", info.TraceID,
		"remote", info.Remote,
		"spans", jsonvalue.NewArray(spans...),
	)
	if len(info.Spans) > 0 {
		meta = meta.WithField("name", jsonvalue.FromGo(info.Spans[0].Name)).
			WithField("start", jsonvalue.FromGo(start.UTC().Format(time.RFC3339Nano))).
			WithField("duration_us", jsonvalue.FromGo(info.Spans[0].Duration.Microseconds()))
	}
	return meta
}

// snapshotMeta is the JSON envelope of one collection snapshot, minus
// the schema itself.
func snapshotMeta(s registry.Snapshot) *jsonvalue.Value {
	return jsonvalue.ObjectFromPairs(
		"name", s.Name,
		"equiv", s.Equiv.String(),
		"docs", s.Docs,
		"bytes", s.Bytes,
		"version", int64(s.Version),
		"ingests", s.Ingests,
		"errors", s.Errors,
		"rate_limited", s.RateLimited,
		"quota", s.Quota.String(),
		"schema_nodes", s.Type.Size(),
		"pipeline", pipelineMeta(s.Pipeline),
	)
}

func writeJSON(w http.ResponseWriter, status int, v *jsonvalue.Value) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(jsontext.MarshalIndent(v, "  "))
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, jsonvalue.ObjectFromPairs("error", msg))
}
