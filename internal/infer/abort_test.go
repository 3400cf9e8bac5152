package infer

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/mison"
	"repro/internal/typelang"
)

// absorbChunkLongLived absorbs every document of data into acc the way
// a worker of the chunked engines does — off the structural index
// under MapIndexed, else through the mison tokenizer, with the
// reference lexer taking any chunk the index or tokenizer rejects —
// and returns the documents absorbed and the error that stopped it.
func absorbChunkLongLived(acc *typelang.Accum, data []byte, indexed bool) (int, error) {
	n := 0
	var err error
	if indexed {
		ia := NewIndexAbsorber()
		ia.SetInternStrings(true)
		if ia.Reset(data, 0) == nil {
			for err = AbsorbFromIndex(ia, acc); err == nil; err = AbsorbFromIndex(ia, acc) {
				n++
			}
			return n, err
		}
	}
	var src jsontext.TokenSource
	ms := mison.NewTokenSource()
	ms.SetInternStrings(true)
	if ms.Reset(data, 0) == nil {
		src = ms
	} else {
		tr := jsontext.NewTokenReaderBytes(data)
		tr.SetInternStrings(true)
		src = tr
	}
	for err = AbsorbFromTokens(src, acc); err == nil; err = AbsorbFromTokens(src, acc) {
		n++
	}
	return n, err
}

// TestAbortBelowRootLeavesAccumulatorClean pins the clean-storage
// invariant on the path where it is easiest to break: a document
// abandoned inside an array or record below the root. There AbortArray
// is a no-op and the half-absorbed elements are cleared only by the
// enclosing staged frame's reset, which visits live storage only. One
// long-lived accumulator takes every malformed stream in turn (valid
// documents sharing the broken shapes, then the broken document), and
// then a valid tail. After every stream the schema of everything kept,
// the documents kept, the error message and its offset must equal the
// DOM oracle's, under K and L, fused and indexed map.
func TestAbortBelowRootLeavesAccumulatorClean(t *testing.T) {
	prefix := `{"a":[{"x":1},{"y":"s"}]}
{"a":{"b":[1,{"c":[true]}]}}
[{"a":1},{"b":[1,{"c":null}]}]
{"a":[[1,2],[3.5]],"d":{"e":{"f":[{"g":1}]}}}
`
	bad := []string{
		`{"a":[{"x":1},{"y":`,
		`{"a":[{"x":1},{"y":}]}`,
		`{"a":[{"x":1},[1,{"z":[2,]}]]}`,
		`{"a":{"b":[1,{"c":[true,x]}]}}`,
		`{"a":[[1,2],[3,`,
		`[{"a":1},{"b":[1,{"c":"s","q":[{}],}]}]`,
		`{"a":[{"x":1,"x":[1,{"q":{"r":[`,
		`{"d":{"e":{"f":[{"g":1},{"g":[{"h":1}],"k":]}]}}}`,
		`{"a":[{"x":1},{"new":[{"deep":[[[{}]]]}],"y":tru}]}`,
	}
	tail := `{"a":[{"x":"s"},{"y":[1]},{"z":[2]},{"new":1}]}
{"a":{"b":[{"c":[1.5]},{"q":[{}]}]}}
[{"b":[{"c":"s"}]},{"q":[]}]
{"a":[[{"r":1}],[]],"d":{"e":{"f":[{"g":[{"h":1}],"k":1}]}}}
{"x":1}
`
	for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
		for _, indexed := range []bool{false, true} {
			acc := typelang.NewAccum(e)
			var kept []*jsonvalue.Value
			check := func(stream string) {
				t.Helper()
				wantT, wantN, wantErr := InferStreamDOM(jsontext.NewDecoder(bytes.NewReader([]byte(stream))), Options{Equiv: e})
				gotN, gotErr := absorbChunkLongLived(acc, []byte(stream), indexed)
				if errors.Is(gotErr, io.EOF) {
					gotErr = nil
				}
				if (wantErr == nil) != (gotErr == nil) ||
					(wantErr != nil && (wantErr.Error() != gotErr.Error() || syntaxOffset(wantErr) != syntaxOffset(gotErr))) {
					t.Fatalf("equiv %v indexed %v, stream %q: error %v, DOM oracle %v", e, indexed, stream, gotErr, wantErr)
				}
				if gotN != wantN {
					t.Fatalf("equiv %v indexed %v, stream %q: kept %d documents, DOM oracle %d", e, indexed, stream, gotN, wantN)
				}
				docs, err := jsontext.ParseLines([]byte(prefixDocs(stream, wantN)))
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, docs...)
				want := Infer(kept, Options{Equiv: e})
				if wantErr == nil && len(docs) == len(kept) && want.StringCounted() != wantT.StringCounted() {
					t.Fatalf("DOM oracles disagree on %q", stream)
				}
				got := acc.Seal()
				if !typelang.Equal(want, got) || want.StringCounted() != got.StringCounted() {
					t.Fatalf("equiv %v indexed %v, after stream %q:\n got %s\nwant %s", e, indexed, stream, got.StringCounted(), want.StringCounted())
				}
			}
			for _, b := range bad {
				check(prefix + b + "\n")
			}
			check(tail)
		}
	}
}

// prefixDocs returns the first n lines of an NDJSON stream.
func prefixDocs(stream string, n int) string {
	end := 0
	for range n {
		end += strings.IndexByte(stream[end:], '\n') + 1
	}
	return stream[:end]
}
