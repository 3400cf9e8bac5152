package typelang_test

import (
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/mison"
	"repro/internal/typelang"
)

// twitterStream is a generated genjson.Twitter corpus as NDJSON, with
// the end offset of every document and the JSON values it holds.
type twitterStream struct {
	data   []byte
	ends   []int
	values []int64
}

func newTwitterStream(n int) *twitterStream {
	g := genjson.Twitter{Seed: 13}
	s := &twitterStream{}
	for i := range n {
		v := g.Generate(i)
		s.data = jsontext.AppendValue(s.data, v, jsontext.WriteOptions{})
		s.data = append(s.data, '\n')
		s.ends = append(s.ends, len(s.data))
		s.values = append(s.values, countValues(v))
	}
	return s
}

// work absorbs the stream's documents through the streamed map phase —
// one long-lived accumulator, documents absorbed straight from mison
// tokens (or off the structural index) in 500-document chunks, exactly
// the sequential engine's discipline — and returns the accumulator's
// cumulative reset visits after each checkpoint's number of documents.
// Every checkpoint must be a multiple of the chunk size.
func (s *twitterStream) work(t *testing.T, checkpoints []int, e typelang.Equiv, indexed bool) []int64 {
	t.Helper()
	const chunkDocs = 500
	acc := typelang.NewAccum(e)
	ts := mison.NewTokenSource()
	ts.SetInternStrings(true)
	ia := infer.NewIndexAbsorber()
	ia.SetInternStrings(true)
	var visits []int64
	var total int64
	lo, docs := 0, 0
	for _, n := range checkpoints {
		v, _, _ := typelang.ProbeWork(func() {
			for ; docs < n; docs += chunkDocs {
				hi := s.ends[docs+chunkDocs-1]
				chunk := s.data[lo:hi]
				var err error
				if indexed {
					if err = ia.Reset(chunk, lo); err != nil {
						t.Fatal(err)
					}
					for err == nil {
						err = infer.AbsorbFromIndex(ia, acc)
					}
				} else {
					if err = ts.Reset(chunk, lo); err != nil {
						t.Fatal(err)
					}
					for err == nil {
						err = infer.AbsorbFromTokens(ts, acc)
					}
				}
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				lo = hi
			}
		})
		total += v
		visits = append(visits, total)
	}
	return visits
}

func countValues(v *jsonvalue.Value) int64 {
	n := int64(1)
	switch v.Kind() {
	case jsonvalue.Array:
		for _, el := range v.Elems() {
			n += countValues(el)
		}
	case jsonvalue.Object:
		for _, f := range v.Fields() {
			n += countValues(f.Value)
		}
	}
	return n
}

// TestResetWorkIsPerDocument pins the O(touched) reset contract on the
// streamed map phase: pooled staging nodes keep every shape they ever
// staged, and a reset that walked that retained storage cost more per
// document the longer the stream ran. Reset visits per document must
// not grow with the stream's length, and must stay within a small
// multiple of the values the documents hold (a value nested d frames
// deep is reset once per enclosing staged frame).
func TestResetWorkIsPerDocument(t *testing.T) {
	sizes := []int{500, 5000, 50000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	stream := newTwitterStream(sizes[len(sizes)-1])
	for _, c := range []struct {
		equiv   typelang.Equiv
		indexed bool
	}{{typelang.EquivKind, false}, {typelang.EquivLabel, false}, {typelang.EquivLabel, true}} {
		visits := stream.work(t, sizes, c.equiv, c.indexed)
		first := float64(visits[0]) / float64(sizes[0])
		for k, n := range sizes {
			var values int64
			for _, v := range stream.values[:n] {
				values += v
			}
			perDoc := float64(visits[k]) / float64(n)
			t.Logf("equiv %v indexed %v: %d docs, %.1f reset visits/doc, %.1f values/doc",
				c.equiv, c.indexed, n, perDoc, float64(values)/float64(n))
			if perDoc > 1.1*first {
				t.Errorf("equiv %v indexed %v: %.1f reset visits/doc at %d docs, more than 1.1x the %.1f at %d docs: reset work grows with history",
					c.equiv, c.indexed, perDoc, n, first, sizes[0])
			}
			if visits[k] > 3*values {
				t.Errorf("equiv %v indexed %v: %d reset visits for %d values at %d docs, want at most 3 per value",
					c.equiv, c.indexed, visits[k], values, n)
			}
		}
	}
}

// TestSparseFieldMergeIsLogarithmic pins the galloping field-table
// merge on the sparse corpus under K: every document stages 16 fields
// of a 4000-name universe, so the document's record merges a handful of
// names into a table of thousands. The linear walk paid about
// table/16 comparisons per staged field; the gallop must pay at most
// 2·log2(table).
func TestSparseFieldMergeIsLogarithmic(t *testing.T) {
	g := genjson.Sparse{Seed: 7, Universe: 4000, PerDoc: 16}
	var warm, measured []byte
	for i := range 6000 {
		v := jsontext.AppendValue(nil, g.Generate(i), jsontext.WriteOptions{})
		if i < 4000 {
			warm = append(append(warm, v...), '\n')
		} else {
			measured = append(append(measured, v...), '\n')
		}
	}
	acc := typelang.NewAccum(typelang.EquivKind)
	absorbAll := func(data []byte) {
		tr := jsontext.NewTokenReaderBytes(data)
		tr.SetInternStrings(true)
		var err error
		for err == nil {
			err = infer.AbsorbFromTokens(tr, acc)
		}
		if !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
	}
	absorbAll(warm)
	table := len(acc.Seal().Fields)
	_, seeks, cmps := typelang.ProbeWork(func() { absorbAll(measured) })
	perSeek := float64(cmps) / float64(seeks)
	limit := 2 * math.Log2(float64(table))
	t.Logf("table %d slots: %d seeks, %.1f comparisons per seek (limit %.1f)", table, seeks, perSeek, limit)
	if seeks < 2000*16 {
		t.Fatalf("%d seeks for 2000 documents of 16 fields", seeks)
	}
	if perSeek > limit {
		t.Errorf("%.1f comparisons per staged field against a %d-slot table, want at most %.1f", perSeek, table, limit)
	}
}
