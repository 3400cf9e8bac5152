package registry

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// rootFuses reads a collection's cumulative root-fuse counter straight
// from its flight recorder, without a snapshot read (which would fuse).
func rootFuses(t *testing.T, reg *Registry, name string) int64 {
	t.Helper()
	reg.mu.RLock()
	c := reg.cols[name]
	reg.mu.RUnlock()
	if c == nil {
		t.Fatalf("collection %q missing", name)
	}
	return c.stats.Snapshot().RootFuses
}

// TestFuseOnlyOnRead pins where the root fuse happens: ingests never
// fuse, the first read after them fuses exactly once, and reads with no
// ingest between them are served from the memoised fuse.
func TestFuseOnlyOnRead(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivLabel, Workers: 2, Shards: 2, Batch: 16})
	defer reg.Close()

	for i := 0; i < 6; i++ {
		data := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: int64(40 + i)}, 120))
		if _, err := reg.Ingest("c", bytes.NewReader(data)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if n := rootFuses(t, reg, "c"); n != 0 {
		t.Fatalf("6 ingests with no read fused the root %d times, want 0", n)
	}

	first, _ := reg.Get("c")
	if first.Pipeline.RootFuses != 1 {
		t.Errorf("first Get: RootFuses=%d, want 1", first.Pipeline.RootFuses)
	}
	if first.Pipeline.BatchPublishes < 1 {
		t.Errorf("BatchPublishes=%d: the ingests published nothing", first.Pipeline.BatchPublishes)
	}
	second, _ := reg.Get("c")
	if second.Pipeline.RootFuses != 1 {
		t.Errorf("second Get with no ingest between: RootFuses=%d, want 1", second.Pipeline.RootFuses)
	}
	if second.Type != first.Type {
		t.Error("second Get did not serve the memoised fuse")
	}
	// The other read surfaces share the memo.
	reg.List()
	reg.Stats()
	if n := rootFuses(t, reg, "c"); n != 1 {
		t.Errorf("List and Stats on a quiet collection: RootFuses=%d, want 1", n)
	}

	// One more ingest: still no fuse until the next read, which fuses
	// once more.
	if _, err := reg.Ingest("c", strings.NewReader(`{"late": true}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if n := rootFuses(t, reg, "c"); n != 1 {
		t.Errorf("ingest after a read: RootFuses=%d, want 1", n)
	}
	third, _ := reg.Get("c")
	if third.Pipeline.RootFuses != 2 {
		t.Errorf("Get after a new ingest: RootFuses=%d, want 2", third.Pipeline.RootFuses)
	}
	if third.Docs != 6*120+1 {
		t.Errorf("Docs=%d, want %d", third.Docs, 6*120+1)
	}
}

// TestTotalDocsRunningSum pins IngestResult.TotalDocs, computed without
// a fuse, to the running sum of accepted documents on every return
// path: success, a malformed body's kept prefix, and a 429.
func TestTotalDocsRunningSum(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivKind, Workers: 2, Shards: 3, Quota: Quota{DocsPerSec: 50}})
	defer reg.Close()
	advance := fakeClock(reg)

	var sum int64
	for i, n := range []int{60, 75, 51, 90} {
		res, err := reg.Ingest("c", strings.NewReader(ndocs(n)))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		sum += int64(res.Docs)
		if res.TotalDocs != sum {
			t.Errorf("ingest %d: TotalDocs=%d, want %d", i, res.TotalDocs, sum)
		}

		// Each body overdraws the 50-doc burst, so the next request is
		// rejected, and it reports the same total.
		res, err = reg.Ingest("c", &readRecorder{t: t, what: "rate-limited ingest"})
		var rl *RateLimitError
		if !errors.As(err, &rl) {
			t.Fatalf("ingest %d: err=%v, want *RateLimitError", i, err)
		}
		if res.Docs != 0 || res.TotalDocs != sum {
			t.Errorf("429 after ingest %d: docs=%d TotalDocs=%d, want 0/%d", i, res.Docs, res.TotalDocs, sum)
		}
		advance(rl.RetryAfter + time.Second)
	}

	res, err := reg.Ingest("c", strings.NewReader(ndocs(3)+`{"a": }`+"\n"))
	if err == nil {
		t.Fatal("malformed body was accepted")
	}
	sum += int64(res.Docs)
	if res.Docs != 3 || res.TotalDocs != sum {
		t.Errorf("malformed body: docs=%d TotalDocs=%d, want 3/%d", res.Docs, res.TotalDocs, sum)
	}
	if n := rootFuses(t, reg, "c"); n != 0 {
		t.Errorf("ingests and rejections fused the root %d times, want 0", n)
	}
	if snap, _ := reg.Get("c"); snap.Docs != sum {
		t.Errorf("snapshot Docs=%d, want %d", snap.Docs, sum)
	}
}
