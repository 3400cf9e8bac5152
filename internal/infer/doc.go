// Package infer implements the parametric schema inference of Baazizi,
// Ben Lahmar, Colazzo, Ghelli and Sartiani ("Schema Inference for
// Massive JSON Datasets", EDBT 2017; "Counting types for massive JSON
// datasets", DBPL 2017; "Parametric schema inference for massive JSON
// datasets", VLDB Journal 2019) — the inference approach the tutorial
// presents in §4.1 as precise and concise at tunable abstraction levels.
//
// The algorithm is a map/reduce:
//
//   - the map phase types each value exactly (TypeOf), producing a type
//     with counting annotations (every node counts the values it
//     summarises, every record field counts its occurrences);
//   - the reduce phase merges types pairwise with the least upper bound
//     of internal/typelang, parameterised by an equivalence relation: K
//     (kind equivalence, records always fuse) or L (label equivalence,
//     records fuse only when they have the same field names).
//
// Because the merge is associative and commutative, the reduce can be
// parallelised and distributed arbitrarily. The execution layer here
// exploits that three ways:
//
//   - the streamed engines fold through typelang.Accum, the mutable
//     accumulator core: document types are absorbed in place and the
//     canonical union is sealed once per chunk (and once per collector
//     publish) instead of being rebuilt per merge — the DOM engines
//     keep the batched MergeAll fold as the reference discipline;
//   - InferParallel feeds batches through a bounded work queue to a
//     worker pool; each worker folds its own partial type and the
//     partials meet in a parallel binary tree reduction;
//   - InferStream and InferStreamParallel fuse the map into the reduce:
//     AbsorbFromTokens (tokens.go) walks each document's tokens and
//     absorbs its structure straight into the chunk's typelang.Accum
//     through the direct-absorption surface (Accum.Doc), so no
//     per-document canonical type — and no value tree — is ever built;
//     the parallel engine's work queue carries raw document-aligned
//     byte chunks, so lexing itself scales with workers and
//     collections larger than memory are inferred at multi-worker
//     speed while only ever holding a bounded window of bytes.
//     Options.Map selects the discipline: MapFused (the default)
//     absorbs from the token stream; MapIndexed goes one layer lower
//     and absorbs straight off mison's structural index
//     (AbsorbFromIndex, index_absorb.go) — object fields walk
//     span-at-a-time off the bitmap index via mison.FieldWalker, so
//     separator tokens are never materialised at all, with per-record
//     fallback to the token walker on anything the index cannot
//     certify; MapReference revives the per-document type +
//     fold.Absorb map phase as the A/B baseline. All three are pinned
//     byte-identical — schemas, counts, document totals, and error
//     offsets — by the accum sweep tests and the index-vs-tokens fuzz
//     differential.
//
// This package is the middle of the streamed pipeline (reader → chunker
// → tokenizer → TypeFromTokens → ordered commit → collector tree): the
// chunking stage (chunking.go) splits the stream into runs of whole
// documents, the workers lex and type chunks in parallel, and chunk
// results commit in stream order so schemas, document counts and error
// offsets are exact. Committed results fold through the sharded
// collector tree (ShardedCollector, collector.go): N leaf collectors
// absorb their shard of the chunk results into live typelang.Accums on
// their own goroutines (sealing on publish) and a root accumulator
// fuses the sealed partials when the result is read (Snapshot, Close),
// never in the background, so the reduce itself parallelises instead
// of serialising on one goroutine — and the same tree, left open, is
// the live-merge engine behind internal/registry's long-running
// collections (InferStreamInto). ReduceShards: 1 keeps the legacy
// in-line ordered Merge fold selectable as the A/B baseline.
// Options.Tokenizer picks the chunking and lexing machinery —
// TokenizerMison (the default) for the structural-index fast path of
// internal/mison, TokenizerScan for the reference byte-at-a-time lexer —
// with identical results either way, and Options.Symbols shares one
// field-name symbol table across all workers.
//
// The DOM-based streaming engines (InferStreamDOM and
// InferStreamParallelDOM) are retained for engines that need
// materialised values and as the measured baseline the token path is
// benchmarked against.
package infer
