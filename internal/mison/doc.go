// Package mison implements the structural-index JSON parsing of Li,
// Katsipoulakis, Chandramouli, Goldstein and Kossmann, "Mison: A Fast
// JSON Parser for Data Analytics" (VLDB 2017) — the §4.2 tool that
// "exploits AVX instructions to speed up data parsing and discarding
// unused objects ... infers structural information of data on the fly
// in order to detect and prune parts of the data that are not needed by
// a given analytics task".
//
// The package has two faces. The original experiment is the projecting
// Parser: BuildBitmaps/BuildIndex raise the four-phase structural index
// over one record and ParseRecord extracts a fixed set of field paths,
// speculating on learned field positions and building values only for
// the projected fields.
//
// The production face is the streamed-inference fast path: Chunker
// finds document-aligned chunk boundaries for infer.InferStreamParallel
// through the string/depth bitmaps, walking only structural characters
// after a branch-free word-at-a-time classification, and TokenSource
// lexes whole chunks behind the jsontext.TokenSource pull interface —
// string payloads are skipped positionally via the quote bitmap, plain
// integers and literals are decided by direct comparison, and
// everything the bitmaps cannot prove clean is delegated per token to
// the reference lexer (jsontext.Scanner), keeping results
// byte-identical to jsontext.TokenReader on every input. Chunks whose
// quote parity the index rejects fall back wholesale to the plain
// lexer; all rejection and defect errors are *IndexError values with
// absolute byte offsets.
//
// FieldWalker goes one layer below TokenSource for the index-driven
// map phase (infer.AbsorbFromIndex, Options.Map: MapIndexed): instead
// of lexing a token per structural character it answers positional
// questions off the bitmaps directly — NextStructural/StructuralAt
// make separator checks O(1) against a merged structural-class bitmap,
// CloseQuote/SkippableSpan/VerbatimSpan certify string spans from the
// quote/backslash/control/non-ASCII classes, PlainInt resolves plain
// integers — so object absorption walks field-span-at-a-time and
// separator tokens are never materialised at all. Anything unprovable
// delegates to the same jsontext.Scanner (ScanValueAt), and the
// absorber falls back per record to the token walker, keeping
// absorption byte-identical to the token path on every input.
//
// Substitution note: the original uses AVX2
// SIMD to build per-character bitmaps. Go with stdlib only has no
// vector intrinsics, so the bitmap pipeline here is word-at-a-time over
// packed uint64 bitmaps (SWAR, swar.go): the same four-phase structure
// — (1) character bitmaps, (2) escaped-character removal, (3)
// string-mask construction by bit-parallel prefix XOR, (4) leveled
// structural positions — with the SIMD byte-compare replaced by
// eight-byte word arithmetic feeding the packed words. Every later
// phase is genuinely bit-parallel, and the algorithmic speedups (no
// tokenisation of skipped content, speculative field lookup) are
// preserved.
package mison
