package infer

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/mison"
)

// This file is the chunking stage of the streamed engines: the input is
// split into runs of whole top-level documents so the workers can lex
// and type raw bytes in parallel. A chunk boundary is a newline at
// container depth zero outside any string, so NDJSON splits per line
// while pretty-printed or concatenated layouts are never cut inside a
// document; input with no top-level newline at all degrades to a single
// chunk.
//
// Two input modes feed the same byteChunk stream:
//
//   - readChunks pulls from an io.Reader into pooled, refcounted chunk
//     buffers (chunkBuf). Chunks alias the buffer they were read into
//     and hold a reference on it; the worker releases the reference
//     once the accumulator has absorbed the chunk, and a fully released
//     buffer returns to a process-wide pool for a reader to refill — so
//     the steady state recycles a handful of arrays, within a run and
//     across runs, instead of allocating a fresh array per compaction
//     or per run.
//   - splitChunksBytes splits a caller-owned byte slice in place:
//     chunks alias the input directly, nothing is copied, nothing is
//     pooled, and the steady state performs zero chunking allocations
//     (pinned by TestSplitChunksBytesAllocFree). This is the path the
//     byte-slice engines and mmap'd file inputs ride.
//
// Boundary finding is pluggable (Options.Tokenizer): the scanning
// splitter walks every byte through a string/escape/depth state
// machine, and mison.Chunker reaches the same boundaries through the
// structural bitmaps, touching only structural characters after a
// branch-free word-at-a-time classification pass.

// docSplitter finds document-aligned split candidates incrementally:
// Splits appends the exclusive end offset of every top-level newline in
// block to dst, carrying string/escape/depth state to the next call.
type docSplitter interface {
	Splits(block []byte, dst []int) []int
}

// scanSplitter is the byte-at-a-time reference splitter.
type scanSplitter struct {
	inStr, esc bool
	depth      int
}

func (s *scanSplitter) Splits(block []byte, dst []int) []int {
	for i, c := range block {
		if s.inStr {
			switch {
			case s.esc:
				s.esc = false
			case c == '\\':
				s.esc = true
			case c == '"':
				s.inStr = false
			}
			continue
		}
		switch c {
		case '"':
			s.inStr = true
		case '{', '[':
			s.depth++
		case '}', ']':
			if s.depth > 0 {
				// Underflow only happens on malformed input; clamping
				// keeps later split points valid so the error stays
				// confined to its own chunk.
				s.depth--
			}
		case '\n':
			if s.depth == 0 {
				dst = append(dst, i+1)
			}
		}
	}
	return dst
}

// newSplitter picks the splitter for the configured tokenizer.
func newSplitter(tz Tokenizer) docSplitter {
	if tz == TokenizerMison {
		return mison.NewChunker()
	}
	return &scanSplitter{}
}

// chunkReadSize is the read-block size of the chunk splitter.
const chunkReadSize = 256 << 10

// maxInitialChunkBuf caps the pre-sized first buffer of the reader
// path; byte targets beyond it are reached by growth doubling.
const maxInitialChunkBuf = 64 << 20

// chunkBuf is one refcounted chunk array of the reader path. The reader
// goroutine holds one reference while it fills the buffer; every chunk
// emitted from it holds another, released by the worker once the chunk
// has been absorbed. When the last reference drops the array returns to
// the shared pool, ready for a reader — of this run or another — to
// refill.
type chunkBuf struct {
	data []byte // full backing array, sliced up to capacity
	refs atomic.Int32
}

// acquire adds a reference (one per aliasing chunk).
func (b *chunkBuf) acquire() {
	if b != nil {
		b.refs.Add(1)
	}
}

// release drops a reference; the last one returns the array to the
// pool. Safe on nil (byte-mode chunks alias caller memory and carry no
// buffer).
func (b *chunkBuf) release() {
	if b != nil && b.refs.Add(-1) == 0 {
		chunkArrays.Put(b)
	}
}

// chunkArrays holds released chunk arrays for every reader-path run of
// the process, so back-to-back runs (a daemon's ingest requests, a
// benchmark's iterations) reuse arrays instead of allocating a fresh
// one each. Sharing is safe because of the refcount: an array enters
// the pool only when its last reference — the reader's or any chunk's
// still being absorbed — is released, so no live chunk of any run ever
// aliases an array another run is refilling.
var chunkArrays sync.Pool

// chunkPool is one run's view of chunkArrays: gets that miss allocate a
// fresh array, gets that hit count into the run's BuffersRecycled stat.
type chunkPool struct {
	recycled int64
}

// get returns a buffer whose array holds at least minCap bytes, with
// one reference (the caller's) held. Pooled buffers whose capacity is
// too small are dropped rather than grown; steady-state capacities are
// uniform, so drops only happen while an unsplittable run is growing
// or when runs with different byte targets share the process.
func (cp *chunkPool) get(minCap int) *chunkBuf {
	for {
		v := chunkArrays.Get()
		if v == nil {
			break
		}
		b := v.(*chunkBuf)
		if cap(b.data) >= minCap {
			cp.recycled++
			b.refs.Store(1)
			return b
		}
	}
	b := &chunkBuf{data: make([]byte, minCap)}
	b.data = b.data[:cap(b.data)]
	b.refs.Store(1)
	return b
}

// takeRecycled harvests the recycle count for the stats frame. Only the
// reader goroutine calls get, so the plain counter needs no atomics.
func (cp *chunkPool) takeRecycled() int64 {
	n := cp.recycled
	cp.recycled = 0
	return n
}

// chunkTargets bundles the chunk-size policy: emit a chunk at a split
// point once it holds docs documents (docs mode, the default) or once
// it holds at least bytes bytes (byte-target mode, Options.ChunkBytes —
// the knob that lets GB-scale inputs ride far larger chunks than the
// 256-doc default would cut).
type chunkTargets struct {
	docs  int
	bytes int
}

func (o Options) chunkTargets() chunkTargets {
	return chunkTargets{docs: o.batch(), bytes: max(o.ChunkBytes, 0)}
}

// sequentialChunkBytes is the default chunk byte target of the
// sequential chunk engine. Parallel engines keep small document-count
// chunks to balance load across workers; the sequential engine has no
// workers to balance, its chunks exist only to amortise index and
// tokenizer resets — so it prefers a handful of large chunks. Large
// chunks are where the zero-copy split earns its keep: the byte-slice
// source emits them for free by aliasing the input, while the reader
// source must buffer each one contiguously.
const sequentialChunkBytes = 4 << 20

// sequentialChunkOpts applies the sequential engine's larger default
// chunk target. An explicit ChunkBytes or Batch wins — callers who
// tuned chunking (tests pinning multi-chunk runs, GB-scale jobs
// choosing their own target) see exactly what they asked for.
func sequentialChunkOpts(o Options) Options {
	if o.ChunkBytes == 0 && o.Batch == 0 {
		o.ChunkBytes = sequentialChunkBytes
	}
	return o
}

// ripe reports whether a chunk spanning size bytes and docs documents
// has reached the emission target.
func (t chunkTargets) ripe(docs, size int) bool {
	if t.bytes > 0 {
		return size >= t.bytes
	}
	return docs >= t.docs
}

// readChunks splits the stream into document-aligned byte chunks and
// hands them to emit (which reports false to stop early). Split
// candidates come from sp; this loop batches them into chunks per the
// targets and manages the pooled buffers. Every emitted chunk holds a
// reference on the buffer it aliases — the consumer must release() it
// once the bytes are dead (after absorption), or the array leaks from
// the pool (harmless, but unrecycled). When st is non-nil the read (io)
// and split (boundary-finding) stage clocks, the chunk counter and the
// copy/recycle counters record into it, flushed once per emitted chunk.
func readChunks(r io.Reader, targets chunkTargets, sp docSplitter, st *PipelineStats, emit func(byteChunk) bool) error {
	var (
		pool      chunkPool
		buf       *chunkBuf // current fill buffer; reader holds one ref
		pending   []byte    // filled prefix of buf.data
		scanned   int       // pending[:scanned] has been handed to the splitter
		base      int       // absolute offset of pending[0]
		index     int
		docs      int // top-level newlines seen since the last split
		lastSplit int // end of the last split point within pending
		splitBuf  []int
		readErr   error
		sawEOF    bool
		frame     statsFrame
	)
	// The initial buffer is sized for one read block past the byte
	// target (capped, so a huge target cannot pre-commit memory the
	// input may never fill — growth doubling covers the rest), which
	// keeps byte-target chunking from copying its way up on every run.
	buf = pool.get(min(max(2*chunkReadSize, targets.bytes+chunkReadSize), maxInitialChunkBuf))
	pending = buf.data[:0]
	if st != nil {
		frame.ReaderInputs = 1
	}
	emitUpTo := func(end int) bool {
		if end <= lastSplit {
			return true
		}
		ch := byteChunk{index: index, base: base + lastSplit, data: pending[lastSplit:end], buf: buf}
		buf.acquire()
		index++
		docs = 0
		lastSplit = end
		if st != nil {
			frame.ChunksSplit++
			frame.BuffersRecycled += pool.takeRecycled()
			frame.flush(st)
		}
		return emit(ch)
	}
	defer func() { buf.release() }()
	for {
		// Refill. When the buffer is full, recycle: carry the unsplit
		// tail into the front of the same array when no emitted chunk
		// still aliases it (refs == 1 — the compaction-reuse fix), into
		// a pooled/fresh array otherwise; with no split point at all the
		// run is unsplittable and the array doubles so total copying
		// stays O(n).
		if len(pending)+chunkReadSize > cap(buf.data) {
			tail := len(pending) - lastSplit
			switch {
			case lastSplit > 0 && buf.refs.Load() == 1 && tail+chunkReadSize <= cap(buf.data):
				// All chunks emitted from this array have been released:
				// the reader owns it alone and may slide the tail down
				// in place instead of allocating.
				copy(buf.data, pending[lastSplit:])
			case lastSplit > 0:
				next := pool.get(max(cap(buf.data), tail+chunkReadSize))
				copy(next.data, pending[lastSplit:])
				buf.release()
				buf = next
			default:
				// Unsplittable run: grow by doubling.
				next := pool.get(max(2*cap(buf.data), tail+chunkReadSize))
				copy(next.data, pending)
				buf.release()
				buf = next
			}
			if st != nil {
				frame.BytesCopied += int64(tail)
			}
			base += lastSplit
			pending = buf.data[:tail]
			scanned = tail
			lastSplit = 0
		}
		readStart := statsClock(st)
		n, err := r.Read(buf.data[len(pending) : len(pending)+chunkReadSize])
		statsSince(st, &frame.ReadNanos, readStart)
		pending = buf.data[:len(pending)+n]
		if err != nil {
			if !errors.Is(err, io.EOF) {
				readErr = err
			}
			sawEOF = true
		}
		// Find boundaries in the new bytes, emitting at every ripe split
		// point.
		splitStart := statsClock(st)
		splitBuf = sp.Splits(pending[scanned:], splitBuf[:0])
		statsSince(st, &frame.SplitNanos, splitStart)
		for _, rel := range splitBuf {
			docs++
			if targets.ripe(docs, scanned+rel-lastSplit) {
				if !emitUpTo(scanned + rel) {
					frame.BuffersRecycled += pool.takeRecycled()
					frame.flush(st)
					return readErr
				}
			}
		}
		scanned = len(pending)
		if sawEOF {
			emitUpTo(len(pending))
			frame.BuffersRecycled += pool.takeRecycled()
			frame.flush(st)
			return readErr
		}
	}
}

// splitBufPool recycles the split-offset scratch of the byte-mode
// splitter across runs, keeping splitChunksBytes allocation-free in the
// steady state.
var splitBufPool = sync.Pool{New: func() any { b := make([]int, 0, 512); return &b }}

// splitChunksBytes is the zero-copy chunking stage: it splits data — a
// caller-owned buffer (the byte-slice engines' input, or an mmap'd
// file) — into document-aligned chunks that alias it directly. No
// pending array, no compaction, no copies: the only work is boundary
// finding, block by block so the splitter's carry logic is exercised
// identically to the reader path. Emitted chunks carry no buffer
// reference (release is a no-op); the caller keeps data alive for the
// duration of the run. When st is non-nil every emitted chunk counts
// its length into BytesAliased — the zero-copy twin of the reader
// path's BytesCopied. The body is deliberately closure-free and its
// split scratch is pooled, so the steady state allocates nothing
// (pinned by TestSplitChunksBytesAllocFree).
func splitChunksBytes(data []byte, targets chunkTargets, sp docSplitter, st *PipelineStats, emit func(byteChunk) bool) error {
	var (
		index     int
		docs      int
		lastSplit int
		frame     statsFrame
	)
	scratch := splitBufPool.Get().(*[]int)
	splits := (*scratch)[:0]
	for blockStart := 0; blockStart < len(data); blockStart += chunkReadSize {
		blockEnd := min(blockStart+chunkReadSize, len(data))
		splitStart := statsClock(st)
		splits = sp.Splits(data[blockStart:blockEnd], splits[:0])
		statsSince(st, &frame.SplitNanos, splitStart)
		for _, rel := range splits {
			docs++
			end := blockStart + rel
			if !targets.ripe(docs, end-lastSplit) {
				continue
			}
			if st != nil {
				frame.ChunksSplit++
				frame.BytesAliased += int64(end - lastSplit)
				frame.flush(st)
			}
			ok := emit(byteChunk{index: index, base: lastSplit, data: data[lastSplit:end]})
			index++
			docs = 0
			lastSplit = end
			if !ok {
				frame.flush(st)
				*scratch = splits[:0]
				splitBufPool.Put(scratch)
				return nil
			}
		}
	}
	if lastSplit < len(data) {
		if st != nil {
			frame.ChunksSplit++
			frame.BytesAliased += int64(len(data) - lastSplit)
		}
		emit(byteChunk{index: index, base: lastSplit, data: data[lastSplit:]})
	}
	frame.flush(st)
	*scratch = splits[:0]
	splitBufPool.Put(scratch)
	return nil
}
