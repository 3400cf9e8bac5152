// registry.go holds the whole registry: collections, ingest, snapshots.
// See doc.go for the package story and the consistency model.

package registry

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// Options configure a Registry; the zero value is usable (kind
// equivalence, auto-sized workers and collector trees, the default
// tokenizer).
type Options struct {
	// Equiv is the merge equivalence every collection folds under:
	// typelang.EquivKind (K) or typelang.EquivLabel (L).
	Equiv typelang.Equiv
	// Workers bounds the parallel chunk workers of each ingest call; 0
	// means GOMAXPROCS.
	Workers int
	// Shards is the leaf count of each collection's collector tree; 0
	// sizes the tree automatically.
	Shards int
	// Batch is the documents-per-chunk target of the ingest pipeline; 0
	// means infer.DefaultBatch.
	Batch int
	// Tokenizer picks the ingest pipeline's lexing machinery; the zero
	// value is the mison structural-index fast path.
	Tokenizer infer.Tokenizer
	// Map picks the ingest pipeline's map phase; the zero value is the
	// fused token absorber (infer.MapIndexed absorbs straight off the
	// structural index, falling back per record — the fallback and
	// parity counters in Snapshot.Pipeline track how often).
	Map infer.MapMode
	// Quota is the default ingest rate limit for new collections (the
	// daemon's -rate-docs/-rate-bytes flags); the zero value is
	// unlimited. Collections can pin their own via
	// CollectionOptions.Quota.
	Quota Quota
}

// CollectionOptions override registry-wide defaults for one collection.
// The zero value overrides nothing.
type CollectionOptions struct {
	// Equiv, when non-nil, pins the collection's merge equivalence
	// instead of the registry default. A collection's equivalence is
	// fixed for its whole life at creation: a later override that
	// disagrees with it is rejected with ErrEquivMismatch (wrapped),
	// never silently coerced — mixing equivalences in one accumulator
	// would make the schema depend on request order.
	Equiv *typelang.Equiv
	// Quota, when non-nil, sets the collection's ingest rate limit
	// instead of the registry default. Unlike Equiv it is an operator
	// knob, not an identity: Create on an existing collection with a
	// Quota override updates the live quota in place (Ingest overrides
	// only apply when the ingest creates the collection).
	Quota *Quota
	// Observer, when non-nil, watches the stages of this ingest call;
	// see StageObserver. Create ignores it.
	Observer StageObserver
}

// StageObserver observes the phases of one ingest call: it is invoked
// with a stage name ("quota", "pipeline", "flush") as the stage begins
// and the func it returns is called when that stage ends. The daemon's
// request tracer hangs spans off this hook; the registry itself knows
// nothing about tracing.
type StageObserver func(stage string) func()

// ErrEquivMismatch reports a per-collection equivalence override that
// disagrees with the equivalence the collection was created under.
var ErrEquivMismatch = errors.New("equivalence differs from the collection's")

// Registry is a concurrent, versioned store of named collections. All
// methods are safe for concurrent use; see doc.go for the consistency
// model.
type Registry struct {
	opts    Options
	symbols *jsontext.SymbolTable
	now     func() time.Time // quota clock; swapped in tests

	mu   sync.RWMutex // guards cols (the map, not the collections)
	cols map[string]*collection
}

// collection is one named schema accumulator: a live collector tree
// (whose leaves absorb into typelang.Accums and whose root fuses only
// when read, memoised by the leaf generation vector — so Get/List on a
// quiet collection reuse the previous sealed snapshot) plus counters.
type collection struct {
	name    string
	equiv   typelang.Equiv // fixed at creation
	col     *infer.ShardedCollector
	lim     *limiter
	version atomic.Uint64 // completed ingests
	ingests atomic.Int64  // ingest requests finished (with or without error)
	errors  atomic.Int64  // ingest requests that ended in an error
	bytesIn atomic.Int64  // decoded payload bytes read by finished ingests
	limited atomic.Int64  // ingest requests rejected by the quota

	// stats is the collection's cumulative pipeline flight recorder:
	// the collector tree reports its reduce-side counters straight into
	// it, and each ingest call's map-side delta is folded in on
	// completion (IngestWith).
	stats infer.PipelineStats

	// life guards the collector against Delete: ingests hold the read
	// side for their whole run, Delete takes the write side before
	// closing the tree, and closed marks a deleted collection so a
	// racing ingest re-resolves the name instead of touching a closed
	// collector.
	life   sync.RWMutex
	closed bool
}

// New returns an empty registry.
func New(opts Options) *Registry {
	return &Registry{
		opts:    opts,
		symbols: jsontext.NewSymbolTable(),
		now:     time.Now,
		cols:    make(map[string]*collection),
	}
}

// resolve returns the named collection, creating it (and its collector
// tree) on first use — under the override's equivalence when co pins
// one, the registry default otherwise. It reports whether this call
// created the collection, and rejects an override that disagrees with
// an existing collection's equivalence.
func (r *Registry) resolve(name string, co CollectionOptions) (c *collection, created bool, err error) {
	want := r.opts.Equiv
	if co.Equiv != nil {
		want = *co.Equiv
	}
	quota := r.opts.Quota
	if co.Quota != nil {
		quota = *co.Quota
	}
	r.mu.RLock()
	c = r.cols[name]
	r.mu.RUnlock()
	if c == nil {
		r.mu.Lock()
		if c = r.cols[name]; c == nil {
			c = &collection{
				name:  name,
				equiv: want,
				lim:   newLimiter(quota, r.now()),
			}
			c.col = infer.NewShardedCollectorStats(r.opts.Shards, want, &c.stats)
			r.cols[name] = c
			created = true
		}
		r.mu.Unlock()
	}
	if co.Equiv != nil && c.equiv != want {
		return nil, false, fmt.Errorf("registry: collection %q: %w (collection %s, requested %s)",
			name, ErrEquivMismatch, c.equiv, want)
	}
	return c, created, nil
}

// Create ensures the named collection exists — under co's equivalence
// when pinned, the registry default otherwise — and returns its
// snapshot plus whether this call created it. Creating an existing
// collection with a compatible (or absent) override is idempotent; an
// incompatible override is rejected with ErrEquivMismatch (wrapped).
func (r *Registry) Create(name string, co CollectionOptions) (Snapshot, bool, error) {
	c, created, err := r.resolve(name, co)
	if err != nil {
		return Snapshot{}, false, err
	}
	if !created && co.Quota != nil {
		// Quota is an operator knob: a Create (the daemon's PUT) on an
		// existing collection re-targets the live limiter.
		c.lim.setQuota(*co.Quota, r.now())
	}
	return c.snapshot(), created, nil
}

// IngestResult reports one completed ingest call.
type IngestResult struct {
	// Collection is the collection name.
	Collection string
	// Docs is the number of documents this call merged in — on an
	// error, exactly the documents before it.
	Docs int
	// TotalDocs is the collection's document count including this call.
	TotalDocs int64
	// Bytes is the number of payload bytes this call read — decoded
	// bytes, when the caller hands the registry a decompressing reader.
	Bytes int64
	// Version is the collection version after this call.
	Version uint64
	// Stats is this call's pipeline delta — the map-side counters and
	// clocks of exactly this ingest (reduce-side counters accrue on the
	// collection's shared collector and appear in Snapshot.Pipeline).
	// The daemon's tracer and slow-request log read fallback and parity
	// figures from here.
	Stats infer.StatsSnapshot
}

// Ingest streams the documents on rd (NDJSON or concatenated JSON) into
// the named collection, creating it if needed: the chunked token
// pipeline lexes and types the body in parallel and commits chunk
// results into the collection's collector tree in stream order. Any
// number of Ingest calls may run concurrently, on the same or different
// collections.
//
// On a malformed document the merged documents are exactly those before
// it (the error carries an absolute body offset) and the error is both
// returned and counted; the collection keeps the prefix. The result is
// valid whether or not err is nil. Ingest flushes the collector before
// returning, so a snapshot taken after it completes includes everything
// it merged.
func (r *Registry) Ingest(name string, rd io.Reader) (IngestResult, error) {
	return r.IngestWith(name, rd, CollectionOptions{})
}

// IngestWith is Ingest with per-collection overrides: the collection is
// created under co's pinned equivalence (and quota) when it does not
// exist yet, and an override that disagrees with an existing
// collection's equivalence is rejected (ErrEquivMismatch, wrapped)
// before any byte is read. A collection over its quota is likewise
// rejected before any byte is read: the error is a *RateLimitError
// carrying the retry delay, the rejection is counted, and rd is
// untouched.
func (r *Registry) IngestWith(name string, rd io.Reader, co CollectionOptions) (IngestResult, error) {
	var c *collection
	for {
		var err error
		if c, _, err = r.resolve(name, co); err != nil {
			return IngestResult{Collection: name}, err
		}
		c.life.RLock()
		if !c.closed {
			break
		}
		// Deleted between lookup and lock: the name no longer maps to
		// this collection, so resolve it again (creating a fresh one).
		c.life.RUnlock()
	}
	defer c.life.RUnlock()
	stage := func(name string) func() {
		if co.Observer == nil {
			return func() {}
		}
		return co.Observer(name)
	}
	endQuota := stage("quota")
	rlErr := c.lim.admit(name, r.now())
	endQuota()
	if rlErr != nil {
		c.limited.Add(1)
		return IngestResult{Collection: name, TotalDocs: c.col.Docs(), Version: c.version.Load()}, rlErr
	}
	// Each call records into a private flight recorder so its snapshot
	// is an exact per-request delta; the delta then folds into the
	// collection's cumulative stats (the collector tree reports its
	// reduce-side counters there directly).
	var st infer.PipelineStats
	cr := &countReader{r: rd}
	endPipeline := stage("pipeline")
	n, err := infer.InferStreamInto(cr, infer.Options{
		Equiv:     c.equiv,
		Workers:   r.opts.Workers,
		Batch:     r.opts.Batch,
		Tokenizer: r.opts.Tokenizer,
		Map:       r.opts.Map,
		Symbols:   r.symbols,
		Stats:     &st,
	}, c.col)
	endPipeline()
	endFlush := stage("flush")
	c.col.Flush()
	endFlush()
	delta := st.Snapshot()
	c.stats.AddSnapshot(delta)
	bytes := cr.n.Load()
	c.lim.charge(int64(n), bytes, r.now())
	c.bytesIn.Add(bytes)
	c.ingests.Add(1)
	if err != nil {
		c.errors.Add(1)
		err = fmt.Errorf("registry: ingest into %q: %w", name, err)
	}
	v := c.version.Add(1)
	// The total is a sum of the leaves' published counts: an ingest
	// never fuses the schema, only a read does.
	return IngestResult{Collection: name, Docs: n, TotalDocs: c.col.Docs(), Bytes: bytes, Version: v, Stats: delta}, err
}

// countReader counts payload bytes for the quota charge and the ingest
// byte counters. The count is atomic: the pipeline's reader goroutine
// writes it while the ingest call's goroutine reads it afterwards.
type countReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Snapshot is a point-in-time view of one collection. Type is immutable
// (the registry never mutates published type nodes), so holding a
// Snapshot costs nothing and blocks nothing.
type Snapshot struct {
	Name string
	// Equiv is the merge equivalence the collection folds under.
	Equiv typelang.Equiv
	// Type is the schema merged so far; typelang.Bottom before any
	// document arrives.
	Type *typelang.Type
	// Docs is the number of documents Type summarises.
	Docs int64
	// Version counts completed ingests. A snapshot taken while an
	// ingest is in flight may already include documents of the next
	// version.
	Version uint64
	// Ingests and Errors count finished ingest calls and how many of
	// them ended in an error.
	Ingests int64
	Errors  int64
	// Bytes counts the decoded payload bytes finished ingests read.
	Bytes int64
	// RateLimited counts ingest calls rejected by the quota.
	RateLimited int64
	// Quota is the collection's current ingest rate limit (zero =
	// unlimited).
	Quota Quota
	// Pipeline is the collection's cumulative pipeline flight recorder:
	// map-side deltas of every finished ingest plus the collector
	// tree's reduce-side counters. Once ingest quiesces it reconciles
	// exactly with the sum of the per-call IngestResult.Stats deltas
	// (plus the collector's own publishes and fuses).
	Pipeline infer.StatsSnapshot
}

// Get returns a snapshot of the named collection. It never blocks
// ingest: the read loads the collector leaves' published partials and
// serves the root's cached fuse, fusing inline (once) when an ingest
// has published since the last read.
func (r *Registry) Get(name string) (Snapshot, bool) {
	r.mu.RLock()
	c := r.cols[name]
	r.mu.RUnlock()
	if c == nil {
		return Snapshot{}, false
	}
	return c.snapshot(), true
}

func (c *collection) snapshot() Snapshot {
	// Version before type: the schema then subsumes everything the
	// version claims (never the reverse).
	v := c.version.Load()
	t, docs := c.col.Snapshot()
	return Snapshot{
		Name:        c.name,
		Equiv:       c.equiv,
		Type:        t,
		Docs:        docs,
		Version:     v,
		Ingests:     c.ingests.Load(),
		Errors:      c.errors.Load(),
		Bytes:       c.bytesIn.Load(),
		RateLimited: c.limited.Load(),
		Quota:       c.lim.quota(),
		Pipeline:    c.stats.Snapshot(),
	}
}

// Delete removes the named collection and shuts down its accumulator
// tree, reporting whether it existed. It waits for in-flight ingests
// into the collection to finish (their documents die with it); ingests
// that resolve the name afterwards create a fresh, empty collection.
// Snapshots taken before the delete stay valid — sealed types are
// immutable and never alias collector state.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	c := r.cols[name]
	if c != nil {
		delete(r.cols, name)
	}
	r.mu.Unlock()
	if c == nil {
		return false
	}
	c.life.Lock()
	c.closed = true
	c.life.Unlock()
	c.col.Close()
	return true
}

// Version returns the named collection's version (completed ingests).
func (r *Registry) Version(name string) (uint64, bool) {
	r.mu.RLock()
	c := r.cols[name]
	r.mu.RUnlock()
	if c == nil {
		return 0, false
	}
	return c.version.Load(), true
}

// List snapshots every collection, sorted by name.
func (r *Registry) List() []Snapshot {
	r.mu.RLock()
	cols := make([]*collection, 0, len(r.cols))
	for _, c := range r.cols {
		cols = append(cols, c)
	}
	r.mu.RUnlock()
	out := make([]Snapshot, len(cols))
	for i, c := range cols {
		out[i] = c.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats aggregates the registry.
type Stats struct {
	Collections int
	Docs        int64
	Ingests     int64
	Errors      int64
	// Bytes is the decoded payload bytes read by finished ingests
	// across live collections.
	Bytes int64
	// RateLimited counts ingest calls rejected by collection quotas.
	RateLimited int64
	// Symbols is the number of distinct field names interned across all
	// workers, requests and collections.
	Symbols int
	// SchemaNodes is the total node count of the sealed snapshot
	// schemas across all collections — the aggregate schema size the
	// registry currently serves.
	SchemaNodes int
	// Pipeline aggregates the live collections' pipeline flight
	// recorders (see Snapshot.Pipeline).
	Pipeline infer.StatsSnapshot
}

// Stats returns registry-wide aggregates without blocking ingest. The
// schema sizes come from the same sealed (and memoised) snapshots
// Get/List serve, so a quiet registry reports them without re-fusing.
func (r *Registry) Stats() Stats {
	s := Stats{Symbols: r.symbols.Len()}
	for _, snap := range r.List() {
		s.Collections++
		s.Docs += snap.Docs
		s.Ingests += snap.Ingests
		s.Errors += snap.Errors
		s.Bytes += snap.Bytes
		s.RateLimited += snap.RateLimited
		s.SchemaNodes += snap.Type.Size()
		s.Pipeline.Add(snap.Pipeline)
	}
	return s
}

// Close shuts down every collection's collector tree. The caller must
// have stopped ingesting; snapshots taken before Close stay valid (types
// are immutable), but the registry must not be used afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.cols {
		c.col.Close()
	}
	r.cols = make(map[string]*collection)
}
