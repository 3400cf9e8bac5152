// Package registry is the live-merge schema registry: named collections
// that each hold a monotonically-growing typelang.Type plus document,
// ingest and error counters, fed incrementally by the streamed token
// pipeline as documents arrive. It is the stateful layer that turns the
// paper's batch map/reduce into a long-running service — the engine
// behind the jsinferd daemon.
//
// Each collection owns a sharded collector tree (infer.ShardedCollector):
// ingest requests run infer.InferStreamInto over their body, committing
// chunk results into the tree where N leaf collectors absorb them into
// live typelang.Accums in parallel and seal a partial on each publish.
// The root fuse of those partials happens only on read: an ingest
// reports the collection's document total from the leaves' published
// counts and never fuses, while the first Get/List/Stats after an
// ingest fuses once and memoises the result by the leaf generation
// vector, so further reads of a quiet collection reuse that sealed
// snapshot. An ingest therefore costs its body, not the size of the
// retained schema; the fuse cost falls on reads. Snapshot reads load the
// leaves' published partials without taking any lock the ingest path
// holds, so reads never block writes. Delete removes a
// collection and shuts its tree down, waiting out in-flight ingests;
// the name is immediately reusable.
//
// Consistency model: within one collection the schema only ever grows
// (every snapshot subsumes every earlier one), an Ingest call flushes
// its collector before returning (a client that completes a POST sees
// its documents in the next read — read-your-writes), and a snapshot
// taken while an ingest is in flight reflects some prefix of that
// ingest's chunks. After all ingests complete, the snapshot is exactly
// the schema batch inference (infer.InferStream) computes over the
// concatenated inputs — byte-identical rendering and counts — which the
// registry tests pin on the checked-in fixtures.
//
// All collections in one Registry share a jsontext.SymbolTable, so a
// field name is materialised once per process no matter how many
// workers, requests or collections decode it.
package registry
