package infer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// This file pins the zero-copy input layer: the byte-slice engines must
// be byte-identical to the reader engines over the same input (schemas,
// counts, error offsets) across the full engine matrix; the byte-mode
// chunker must emit exactly the reader chunker's chunk stream; the
// byte-mode steady state must not allocate; and the pooled reader
// buffers must never be recycled while a chunk still aliases them (the
// race test below runs under `make race`).

// TestBytesEngineMatchesReaderFixtures is the bytes-vs-reader
// equivalence sweep: every checked-in fixture through every tokenizer,
// map mode, worker count and shard count, demanding the byte-slice
// engines return exactly what the reader engines return.
func TestBytesEngineMatchesReaderFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no testdata fixtures found")
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		label := filepath.Base(name)
		check := func(engine string, want, got *typelang.Type, wantN, gotN int, wantErr, gotErr error) {
			t.Helper()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s/%s: reader err %v, bytes err %v", label, engine, wantErr, gotErr)
			}
			if wantN != gotN {
				t.Errorf("%s/%s: reader typed %d docs, bytes typed %d", label, engine, wantN, gotN)
			}
			if !typelang.Equal(want, got) || want.StringCounted() != got.StringCounted() {
				t.Errorf("%s/%s: bytes engine diverges from reader\n reader: %s\n bytes:  %s",
					label, engine, want.StringCounted(), got.StringCounted())
			}
		}
		for _, mm := range []MapMode{MapFused, MapReference, MapIndexed} {
			// Small batches force multi-chunk runs even on small fixtures.
			seqOpts := Options{Map: mm, Batch: 32}
			want, wantN, wantErr := InferStream(bytes.NewReader(data), seqOpts)
			got, gotN, gotErr := InferStreamBytes(data, seqOpts)
			check(fmt.Sprintf("sequential-%v", mm), want, got, wantN, gotN, wantErr, gotErr)
			for _, tz := range []Tokenizer{TokenizerScan, TokenizerMison} {
				for _, workers := range []int{1, 4} {
					for _, shards := range []int{0, 1, 3} {
						opts := Options{Map: mm, Tokenizer: tz, Workers: workers, ReduceShards: shards, Batch: 32}
						want, wantN, wantErr := InferStreamParallel(bytes.NewReader(data), opts)
						got, gotN, gotErr := InferStreamParallelBytes(data, opts)
						check(fmt.Sprintf("parallel-%v-%v-w%d-shards-%d", mm, tz, workers, shards),
							want, got, wantN, gotN, wantErr, gotErr)
					}
				}
			}
		}
	}
}

// TestBytesEngineErrorEquivalence pins the byte-slice engines' error
// behaviour to the reader engines': same message, same absolute offset,
// same count of documents typed before the failure, on every malformed
// input and engine shape.
func TestBytesEngineErrorEquivalence(t *testing.T) {
	bad := []string{
		"{\"a\": 1}\n{]\n",
		"[1, 2\n",
		"{\"a\": tru}\n",
		"\"unterminated\n{\"a\": 1}\n",
		"{\"a\": 1}\n12..5\n{\"b\": 2}\n",
		"{\"a\": 1}\n{\"s\": \"ctrl\x01\"}\n{\"b\": 2}\n",
		"{\"a\": [1, {\"b\": 2}, \n",
		"{\"a\": {\"b\": 1, }}\n",
	}
	for _, in := range bad {
		data := []byte(in)
		for _, mm := range []MapMode{MapFused, MapReference, MapIndexed} {
			_, wantN, wantErr := InferStream(strings.NewReader(in), Options{Map: mm})
			_, gotN, gotErr := InferStreamBytes(data, Options{Map: mm})
			if wantErr == nil || gotErr == nil {
				t.Fatalf("%q/%v: malformed input accepted (reader %v, bytes %v)", in, mm, wantErr, gotErr)
			}
			if wantErr.Error() != gotErr.Error() || syntaxOffset(wantErr) != syntaxOffset(gotErr) || wantN != gotN {
				t.Errorf("%q/seq-%v: reader (%q, off %d, %d docs), bytes (%q, off %d, %d docs)",
					in, mm, wantErr, syntaxOffset(wantErr), wantN, gotErr, syntaxOffset(gotErr), gotN)
			}
			for _, tz := range []Tokenizer{TokenizerScan, TokenizerMison} {
				opts := Options{Map: mm, Tokenizer: tz, Workers: 4, Batch: 1}
				_, wantN, wantErr := InferStreamParallel(strings.NewReader(in), opts)
				_, gotN, gotErr := InferStreamParallelBytes(data, opts)
				if wantErr == nil || gotErr == nil {
					t.Fatalf("%q/%v/%v: malformed input accepted", in, mm, tz)
				}
				if wantErr.Error() != gotErr.Error() || syntaxOffset(wantErr) != syntaxOffset(gotErr) || wantN != gotN {
					t.Errorf("%q/par-%v-%v: reader (%q, off %d, %d docs), bytes (%q, off %d, %d docs)",
						in, mm, tz, wantErr, syntaxOffset(wantErr), wantN, gotErr, syntaxOffset(gotErr), gotN)
				}
			}
		}
	}
}

// TestSplitChunksBytesMatchesReadChunks pins the two chunking stages to
// the same chunk stream — same data, same absolute bases, same indexes
// — across document-count and byte-size targets and both splitters.
func TestSplitChunksBytesMatchesReadChunks(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 90}, 400)
	data := jsontext.MarshalLines(docs)
	type chunk struct {
		index, base int
		data        string
	}
	collect := func(viaReader bool, targets chunkTargets) []chunk {
		var out []chunk
		emit := func(ch byteChunk) bool {
			out = append(out, chunk{ch.index, ch.base, string(ch.data)})
			ch.buf.release()
			return true
		}
		var err error
		if viaReader {
			err = readChunks(bytes.NewReader(data), targets, &scanSplitter{}, nil, emit)
		} else {
			err = splitChunksBytes(data, targets, &scanSplitter{}, nil, emit)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, targets := range []chunkTargets{
		{docs: 1}, {docs: 7}, {docs: 256},
		{docs: 256, bytes: 1 << 10}, {docs: 1, bytes: 64 << 10}, {docs: 256, bytes: 1},
	} {
		want := collect(true, targets)
		got := collect(false, targets)
		if len(want) != len(got) {
			t.Fatalf("targets=%+v: %d byte-mode chunks, want %d", targets, len(got), len(want))
		}
		off := 0
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("targets=%+v: chunk %d = {%d %d %dB}, want {%d %d %dB}",
					targets, i, got[i].index, got[i].base, len(got[i].data),
					want[i].index, want[i].base, len(want[i].data))
			}
			if got[i].base != off {
				t.Fatalf("targets=%+v: chunk %d base %d, want %d", targets, i, got[i].base, off)
			}
			off += len(got[i].data)
			if targets.bytes > 0 && i < len(got)-1 && len(got[i].data) < targets.bytes {
				t.Errorf("targets=%+v: chunk %d holds %d bytes, below the byte target", targets, i, len(got[i].data))
			}
		}
		if off != len(data) {
			t.Fatalf("targets=%+v: chunks cover %d bytes, want %d", targets, off, len(data))
		}
	}
}

// TestSplitChunksBytesAllocFree pins the tentpole's allocation claim:
// the byte-mode chunking stage allocates nothing in the steady state —
// no pending array, no compaction, no per-chunk allocation.
func TestSplitChunksBytesAllocFree(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 91}, 300)
	data := jsontext.MarshalLines(docs)
	sp := &scanSplitter{}
	var chunks, total int
	emit := func(ch byteChunk) bool {
		chunks++
		total += len(ch.data)
		return true
	}
	targets := chunkTargets{docs: 16}
	// Warm the split-scratch pool, then demand a zero steady state.
	if err := splitChunksBytes(data, targets, sp, nil, emit); err != nil {
		t.Fatal(err)
	}
	if chunks == 0 {
		t.Fatal("no chunks emitted")
	}
	if n := testing.AllocsPerRun(20, func() {
		*sp = scanSplitter{}
		if err := splitChunksBytes(data, targets, sp, nil, emit); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("byte-mode chunking allocates %.1f times per run, want 0", n)
	}
	if total == 0 {
		t.Fatal("no bytes emitted")
	}
}

// TestReadChunksCompactionReuse pins the satellite fix: when every
// emitted chunk has been released by compaction time, the reader slides
// the unsplit tail down in place — no fresh array, no pool churn — so
// a run whose consumer keeps up recycles zero buffers and copies only
// tails.
func TestReadChunksCompactionReuse(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 92}, 4000)
	data := jsontext.MarshalLines(docs)
	if len(data) < 3*chunkReadSize {
		t.Fatalf("fixture too small to force compactions: %d bytes", len(data))
	}
	// The chunk-array pool is shared across runs: start from an empty
	// one, so the run's first buffer is a fresh allocation and any
	// recycle counted below comes from this run's compactions.
	drainChunkArrays()
	var st PipelineStats
	if err := readChunks(bytes.NewReader(data), chunkTargets{docs: 64}, &scanSplitter{}, &st,
		func(ch byteChunk) bool { ch.buf.release(); return true }); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if s.BuffersRecycled != 0 {
		t.Errorf("prompt-release run recycled %d buffers, want 0 (in-place tail reuse)", s.BuffersRecycled)
	}
	if s.BytesCopied >= int64(len(data)) {
		t.Errorf("compaction copied %d of %d input bytes; tails only should be far less", s.BytesCopied, len(data))
	}
	if s.ReaderInputs != 1 || s.MmapInputs != 0 {
		t.Errorf("reader run counted reader_inputs=%d mmap_inputs=%d, want 1/0", s.ReaderInputs, s.MmapInputs)
	}

	// Holding the newest chunk until the next one arrives keeps refs > 1
	// at compaction time, forcing the pooled path — and the pool must
	// then recycle the arrays freed by earlier releases.
	var held byteChunk
	st = PipelineStats{}
	if err := readChunks(bytes.NewReader(data), chunkTargets{docs: 64}, &scanSplitter{}, &st,
		func(ch byteChunk) bool {
			held.buf.release()
			held = ch
			return true
		}); err != nil {
		t.Fatal(err)
	}
	held.buf.release()
	if s := st.Snapshot(); s.BuffersRecycled == 0 {
		t.Errorf("held-chunk run recycled no buffers; the pool should round-trip freed arrays")
	}
}

// drainChunkArrays empties the process-wide chunk-array pool.
func drainChunkArrays() {
	for chunkArrays.Get() != nil {
	}
}

// TestSharedChunkPoolConcurrentRuns runs concurrent reader-path
// pipelines over different bodies, all drawing on the one process-wide
// chunk-array pool (run it under -race): each run's schema and count
// must equal the InferParallel DOM oracle over its own documents, so an
// array refilled by one run while a chunk of another still aliases it
// would show as a wrong schema as well as a data race. Successive runs
// must also reuse each other's arrays: BuffersRecycled, summed over
// the rounds, is positive.
func TestSharedChunkPoolConcurrentRuns(t *testing.T) {
	const runs, rounds = 4, 3
	bodies := make([][]byte, runs)
	oracles := make([]string, runs)
	for i := range bodies {
		var docs []*jsonvalue.Value
		if i%2 == 0 {
			docs = genjson.Collection(genjson.Twitter{Seed: int64(200 + i)}, 400)
		} else {
			docs = genjson.Collection(genjson.GitHub{Seed: int64(200 + i)}, 400)
		}
		bodies[i] = jsontext.MarshalLines(docs)
		oracles[i] = InferParallel(docs, Options{Equiv: typelang.EquivLabel, Workers: 2}).StringCounted()
	}
	var recycled int64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		stats := make([]PipelineStats, runs)
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				col := NewShardedCollector(2, typelang.EquivLabel)
				n, err := InferStreamInto(bytes.NewReader(bodies[i]), Options{
					Equiv: typelang.EquivLabel, Workers: 2, Batch: 16, Stats: &stats[i],
				}, col)
				got, docs := col.Close()
				switch {
				case err != nil:
					t.Errorf("round %d body %d: %v", round, i, err)
				case n != 400 || docs != 400:
					t.Errorf("round %d body %d: committed %d, collector holds %d, want 400", round, i, n, docs)
				case got.StringCounted() != oracles[i]:
					t.Errorf("round %d body %d: schema differs from the DOM oracle", round, i)
				}
			}()
		}
		wg.Wait()
		for i := range stats {
			recycled += stats[i].Snapshot().BuffersRecycled
		}
	}
	if recycled == 0 {
		t.Errorf("%d runs recycled no chunk arrays; successive runs should reuse released arrays", runs*rounds)
	}
}

// TestChunkPoolLifetimeRace is the pool-lifetime race test (run under
// `make race`): chunks are consumed on concurrent goroutines that
// verify every byte against the original input before releasing, while
// the reader recycles released buffers as fast as it can. A buffer
// recycled while a chunk still aliases it shows up both as a content
// mismatch and as a data race on the array.
func TestChunkPoolLifetimeRace(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 93}, 6000)
	data := jsontext.MarshalLines(docs)
	work := make(chan byteChunk, 4)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		consumed int
		bad      int
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range work {
				ok := bytes.Equal(ch.data, data[ch.base:ch.base+len(ch.data)])
				ch.buf.release()
				mu.Lock()
				consumed += len(ch.data)
				if !ok {
					bad++
				}
				mu.Unlock()
			}
		}()
	}
	err := readChunks(bytes.NewReader(data), chunkTargets{docs: 8}, &scanSplitter{}, nil,
		func(ch byteChunk) bool { work <- ch; return true })
	close(work)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d chunks no longer matched the input when consumed — recycled while aliased", bad)
	}
	if consumed != len(data) {
		t.Fatalf("consumed %d bytes, want %d", consumed, len(data))
	}
}

// TestInferStreamBytesStats pins the zero-copy counters: a byte-mode
// parallel run aliases every payload byte and copies none.
func TestInferStreamBytesStats(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 94}, 500)
	data := jsontext.MarshalLines(docs)
	var st PipelineStats
	_, n, err := InferStreamParallelBytes(data, Options{Workers: 4, Batch: 32, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("typed %d docs, want 500", n)
	}
	s := st.Snapshot()
	if s.BytesAliased != int64(len(data)) {
		t.Errorf("BytesAliased = %d, want %d (every byte emitted in place)", s.BytesAliased, len(data))
	}
	if s.BytesCopied != 0 || s.BuffersRecycled != 0 {
		t.Errorf("byte mode copied %d bytes and recycled %d buffers, want 0/0", s.BytesCopied, s.BuffersRecycled)
	}
	if s.ReaderInputs != 0 {
		t.Errorf("byte mode counted %d reader inputs, want 0", s.ReaderInputs)
	}
	if s.BytesLexed != int64(len(data)) {
		t.Errorf("BytesLexed = %d, want %d", s.BytesLexed, len(data))
	}
}

// TestSequentialIndexedEngineStats pins the new sequential MapIndexed
// routing: chunked absorption off the structural index, one seal, and
// the fast path actually taken on clean input.
func TestSequentialIndexedEngineStats(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 95}, 600)
	data := jsontext.MarshalLines(docs)
	var st PipelineStats
	_, n, err := InferStream(bytes.NewReader(data), Options{Map: MapIndexed, Batch: 64, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if int64(n) != s.DocsAbsorbed || n != 600 {
		t.Fatalf("typed %d docs (absorbed %d), want 600", n, s.DocsAbsorbed)
	}
	if s.Seals != 1 {
		t.Errorf("sequential indexed engine sealed %d times, want exactly 1", s.Seals)
	}
	if s.ChunksSplit == 0 {
		t.Errorf("sequential indexed engine split no chunks; the index needs whole byte chunks")
	}
	if s.IndexRecords == 0 {
		t.Errorf("clean input absorbed no records off the index (fallbacks: %d)", s.FallbackRecords)
	}
	if s.BytesLexed != int64(len(data)) {
		t.Errorf("BytesLexed = %d, want %d", s.BytesLexed, len(data))
	}
	if s.ReaderInputs != 1 {
		t.Errorf("ReaderInputs = %d, want 1", s.ReaderInputs)
	}
}
