package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// persistDB hosts hospitalXML under name in a fresh persistent
// service rooted at dir, so the durable *.sxdb file exists when it
// returns.
func persistDB(t *testing.T, dir, name string) *core.System {
	t.Helper()
	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatalf("NewPersistentService: %v", err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("quarantine-"+name))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	cl := Dial(ts.URL, name).WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	return sys
}

// TestBitFlipQuarantined: a single flipped bit anywhere in a
// persisted file — including the opaque ciphertext regions whose
// decode would happily accept garbage — must fail the snapshot's
// SHA-256 at reload. The rotten file is quarantined, not
// served, and not fatal: the healthy database beside it loads.
func TestBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	rotten := persistDB(t, dir, "rotten")
	healthy := persistDB(t, dir, "healthy")

	// Flip one bit inside a block's ciphertext, where no structural
	// decode check can notice.
	path := filepath.Join(dir, "rotten"+dbFileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blk := rotten.HostedDB.Blocks[len(rotten.HostedDB.Blocks)-1]
	at := bytes.Index(data, blk)
	if at < 0 {
		t.Fatal("block ciphertext not found in the snapshot file")
	}
	data[at+len(blk)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatalf("reload with corrupt file must not be fatal: %v", err)
	}
	q := svc.Quarantined()
	if len(q) != 1 || q[0].File != "rotten"+dbFileExt {
		t.Fatalf("quarantined = %+v, want exactly rotten%s", q, dbFileExt)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "rotten"+dbFileExt)); err != nil {
		t.Errorf("corrupt file not moved to quarantine: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt file still in serving directory")
	}

	ts := httptest.NewServer(svc)
	defer ts.Close()
	// The corrupt database refuses to serve: it was never loaded.
	resp, err := ts.Client().Get(ts.URL + "/db/rotten/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("quarantined database answered %d, want 404", resp.StatusCode)
	}
	// The healthy one is unaffected.
	healthy.UseBackend(Dial(ts.URL, "healthy").WithHTTPClient(ts.Client()))
	nodes, _, _, err := healthy.Query("//patient/pname")
	if err != nil {
		t.Fatalf("healthy database lost to neighbor's corruption: %v", err)
	}
	if len(nodes) != 2 {
		t.Errorf("healthy database returned %d patients, want 2", len(nodes))
	}
}

// TestTruncationQuarantined: a file torn short (losing its checksum
// and part of its body) must also be quarantined.
func TestTruncationQuarantined(t *testing.T) {
	dir := t.TempDir()
	persistDB(t, dir, "torn")
	path := filepath.Join(dir, "torn"+dbFileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatalf("reload with truncated file must not be fatal: %v", err)
	}
	if q := svc.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantined = %+v, want one record", q)
	}
}

// TestTrailerlessSnapshotQuarantined: a snapshot that lost its
// trailing SHA-256 (the rest still decodes), or whose SHA-256 does not
// match, is damage like any other — every file this service writes
// carries one. It must be set aside, never served, and a re-upload
// under the same name must start clean beside the corpse.
func TestTrailerlessSnapshotQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"missing", func(d []byte) []byte { return d[:len(d)-sha256.Size] }},
		{"wrong", func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sys := persistDB(t, dir, "bare")
			path := filepath.Join(dir, "bare"+dbFileExt)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			svc, err := NewPersistentService(dir)
			if err != nil {
				t.Fatalf("reload with a bad checksum must not be fatal: %v", err)
			}
			q := svc.Quarantined()
			if len(q) != 1 || q[0].File != "bare"+dbFileExt || !strings.Contains(q[0].Reason, "checksum") {
				t.Fatalf("quarantined = %+v, want bare%s for its checksum", q, dbFileExt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("damaged file still in serving directory")
			}
			ts := httptest.NewServer(svc)
			defer ts.Close()
			resp, err := ts.Client().Get(ts.URL + "/db/bare/stats")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("quarantined database answered %d, want 404", resp.StatusCode)
			}

			// Re-hosting under the same name starts clean: generation
			// 1, no recovery history. (TestRehostAfterQuarantinePersists
			// covers the restart after a re-host, whatever the
			// quarantine cause.)
			cl := Dial(ts.URL, "bare").WithHTTPClient(ts.Client())
			if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
				t.Fatalf("re-upload: %v", err)
			}
			sys.UseBackend(cl)
			_, _, tm, err := sys.Query("//patient/pname")
			if err != nil || tm.Generation != 1 {
				t.Fatalf("query after re-upload: generation %d, err %v", tm.Generation, err)
			}
			if rec, ok := svc.Recoveries()["bare"]; ok {
				t.Errorf("re-uploaded database carries recovery history: %+v", rec)
			}
		})
	}
}

// TestRetiredSnapshotFormatQuarantined: a file in the retired SXDS1
// layout (blocks elided into a per-block store) has no reader. It is
// quarantined, naming its magic, never loaded with empty blocks. The
// retired layout's separate checksum trailer is left off: the magic
// refuses the file before anything past it is read.
func TestRetiredSnapshotFormatQuarantined(t *testing.T) {
	dir := t.TempDir()
	persistDB(t, dir, "old")
	path := filepath.Join(dir, "old"+dbFileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, gen, root, err := wire.UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	db.Blocks = make([][]byte, len(db.Blocks))
	inner, err := wire.MarshalDB(db)
	if err != nil {
		t.Fatal(err)
	}
	old := binary.BigEndian.AppendUint64([]byte("SXDS1"), gen)
	old = binary.AppendUvarint(old, uint64(len(root)))
	old = append(old, root...)
	old = binary.AppendUvarint(old, uint64(len(inner)))
	old = append(old, inner...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatalf("reload with a retired-format file must not be fatal: %v", err)
	}
	q := svc.Quarantined()
	if len(q) != 1 || !strings.Contains(q[0].Reason, "SXDS1") {
		t.Fatalf("quarantined = %+v, want old%s refused by its SXDS1 magic", q, dbFileExt)
	}
	if svc.dbs["old"] != nil {
		t.Fatal("retired-format snapshot was loaded")
	}
}

// TestPersistFailureNotDedupAcked is the regression test for the
// update durability ordering: when applying an update succeeds but
// persisting it fails, the request ID must NOT enter the dedup
// table. The client's retry (same request ID) must be re-applied and
// re-persisted — a dedup ack would leave the client believing the
// update durable while the disk still holds the old state.
func TestPersistFailureNotDedupAcked(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("durability-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}

	// Middleware that sabotages persistence for exactly the first
	// update: a directory squatting on the tmp path makes the
	// WriteFile inside persist fail after the update has been applied
	// in memory.
	blocker := filepath.Join(dir, "hospital"+dbFileExt+tmpSuffix)
	var sabotaged atomic.Bool
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/db/hospital/update" && sabotaged.CompareAndSwap(false, true) {
			if err := os.Mkdir(blocker, 0o755); err != nil {
				t.Errorf("sabotage: %v", err)
			}
			svc.ServeHTTP(w, r)
			os.Remove(blocker)
			return
		}
		svc.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(ts.Client()).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2})
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)

	// The first attempt applies in memory, fails to persist, and
	// returns 500 (retryable). The client retries with the same
	// request ID; the retry must go through the full apply+persist
	// path again, not the dedup fast path.
	n, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera")
	if err != nil {
		t.Fatalf("update through persist failure: %v", err)
	}
	if n != 1 {
		t.Fatalf("updated %d values, want 1", n)
	}
	if !sabotaged.Load() {
		t.Fatal("sabotage never fired; test exercised nothing")
	}
	if got := svc.DedupHits(); got != 0 {
		t.Errorf("dedup hits = %d, want 0: a failed persist must not be dedup-acked", got)
	}

	// The durable file must hold the post-update state: a fresh
	// service from the same directory serves the updated value.
	svc2, err := NewPersistentService(dir)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	sys.UseBackend(Dial(ts2.URL, "hospital").WithHTTPClient(ts2.Client()))
	nodes, _, _, err := sys.Query("//patient[.//disease='cholera']/pname")
	if err != nil {
		t.Fatalf("post-restart query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
		t.Errorf("update lost across restart after persist failure: %v", core.ResultStrings(nodes))
	}
}
