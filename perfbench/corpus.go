package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// Corpus sizes. They are part of the workload definitions: changing one
// changes what every later measurement means.
const (
	tweetsBytes   = 24 << 20 // tweets-file: generated until at least this many bytes
	sparseDocs    = 80_000   // sparse-stdin: documents
	sparseUniv    = 4000     // sparse-stdin: record-table size
	sparsePerDoc  = 16       // sparse-stdin: fields per document
	bodyDocs      = 100      // daemon-mixed: documents per ingest body
	bodyPool      = 64       // daemon-mixed: distinct bodies cycled through
	bodySeedShift = 1 << 20  // daemon-mixed bodies use seed+bodySeedShift
	oracleBatch   = 4096     // documents per DOM oracle partition
	corpusFormat  = "v1"     // bump when generation changes, to drop caches
)

// corpus is one workload's generated input and its DOM-oracle schema.
type corpus struct {
	path        string // NDJSON file on disk
	data        []byte // the same bytes in memory
	docs        int
	oracle      string // infer.InferParallel(docs).String() + "\n", what jsinfer prints
	first       []byte // the first document, one line, for set-up runs
	firstOracle string // oracle output for the one-document input
}

// batchCorpus returns the tweets-file or sparse-stdin corpus for seed,
// generating it (and its oracle) on first use and caching both under
// dir, keyed by workload and seed.
func batchCorpus(dir, workload string, seed int64) (*corpus, error) {
	base := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d", workload, corpusFormat, seed))
	c := &corpus{path: base + ".ndjson"}
	data, errD := os.ReadFile(c.path)
	oracle, errO := os.ReadFile(base + ".oracle")
	if errD != nil || errO != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		gen, eq, done := batchGenerator(workload, seed)
		data, oracle = generate(gen, eq, done)
		if err := os.WriteFile(c.path, data, 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+".oracle", oracle, 0o644); err != nil {
			return nil, err
		}
	}
	c.data, c.oracle = data, string(oracle)
	c.docs = bytes.Count(data, []byte{'\n'})
	c.first = data[:bytes.IndexByte(data, '\n')+1]
	gen, eq, _ := batchGenerator(workload, seed)
	c.firstOracle = infer.Infer([]*jsonvalue.Value{gen.Generate(0)}, infer.Options{Equiv: eq}).String() + "\n"
	return c, nil
}

// batchGenerator returns the generator, equivalence and stop rule of a
// batch workload.
func batchGenerator(workload string, seed int64) (genjson.Generator, typelang.Equiv, func(docs, bytes int) bool) {
	if workload == "sparse-stdin" {
		return genjson.Sparse{Seed: seed, Universe: sparseUniv, PerDoc: sparsePerDoc}, typelang.EquivKind,
			func(docs, _ int) bool { return docs >= sparseDocs }
	}
	return genjson.Twitter{Seed: seed}, typelang.EquivLabel,
		func(_, n int) bool { return n >= tweetsBytes }
}

// generate renders documents of g as NDJSON until done says stop, and
// folds the DOM oracle over the same documents partition by partition
// (each partition typed by infer.InferParallel, partitions merged with
// typelang.Merge — InferParallel's own reduce).
func generate(g genjson.Generator, eq typelang.Equiv, done func(docs, bytes int) bool) (data, oracle []byte) {
	acc := typelang.Bottom
	batch := make([]*jsonvalue.Value, 0, oracleBatch)
	flush := func() {
		if len(batch) > 0 {
			acc = typelang.Merge(acc, infer.InferParallel(batch, infer.Options{Equiv: eq}), eq)
			batch = batch[:0]
		}
	}
	for i := 0; !done(i, len(data)); i++ {
		doc := g.Generate(i)
		data = append(jsontext.AppendValue(data, doc, jsontext.WriteOptions{}), '\n')
		if batch = append(batch, doc); len(batch) == oracleBatch {
			flush()
		}
	}
	flush()
	return data, []byte(acc.String() + "\n")
}

// body is one daemon-mixed ingest payload.
type body struct {
	identity []byte
	gzipped  []byte
	docs     int
	typ      *typelang.Type // DOM oracle of the body under L
}

// bodyPoolFor generates the daemon-mixed body pool for seed: bodyPool
// bodies of bodyDocs Twitter documents each, from a seed distinct from
// tweets-file's, with their gzip encodings and per-body DOM oracles.
func bodyPoolFor(seed int64) ([]body, error) {
	g := genjson.Twitter{Seed: seed + bodySeedShift}
	var data []byte
	for i := range bodyPool * bodyDocs {
		data = append(jsontext.AppendValue(data, g.Generate(i), jsontext.WriteOptions{}), '\n')
	}
	return bodiesFromLines(data, bodyPool, typelang.EquivLabel)
}

// bodiesFromLines cuts NDJSON data into at most limit bodies of
// bodyDocs lines each, with their DOM oracles under eq.
func bodiesFromLines(data []byte, limit int, eq typelang.Equiv) ([]body, error) {
	var out []body
	lines := bytes.SplitAfter(data, []byte{'\n'})
	for i := 0; i+bodyDocs <= len(lines) && len(out) < limit; i += bodyDocs {
		raw := bytes.Join(lines[i:i+bodyDocs], nil)
		docs, err := jsontext.ParseLines(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, body{identity: raw, gzipped: gzipBytes(raw), docs: len(docs),
			typ: infer.InferParallel(docs, infer.Options{Equiv: eq})})
	}
	return out, nil
}

func gzipBytes(raw []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw) // writes to a bytes.Buffer cannot fail
	zw.Close()
	return buf.Bytes()
}

// foldBodies is the DOM oracle of a collection that accepted the given
// bodies: their per-body oracle types merged under eq.
func foldBodies(pool []body, accepted []int, eq typelang.Equiv) (*typelang.Type, int) {
	acc, docs := typelang.Bottom, 0
	for _, i := range accepted {
		acc = typelang.Merge(acc, pool[i].typ, eq)
		docs += pool[i].docs
	}
	return acc, docs
}

// prefixLines returns the leading whole lines of data, at most n bytes.
func prefixLines(data []byte, n int) []byte {
	if len(data) <= n {
		return data
	}
	cut := bytes.LastIndexByte(data[:n], '\n')
	return data[:cut+1]
}
