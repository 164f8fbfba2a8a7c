package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultfs"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// encryptHospital encrypts hospitalXML under key for an owner that has
// not uploaded yet.
func encryptHospital(t *testing.T, key string) *core.System {
	t.Helper()
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte(key))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	return sys
}

// uploadOnce sends one upload attempt, with no retry.
func uploadOnce(ts *httptest.Server, name string, db *wire.HostedDB) error {
	cl := Dial(ts.URL, name).WithHTTPClient(ts.Client()).WithRetry(RetryPolicy{MaxAttempts: 1})
	return cl.Upload(context.Background(), db)
}

// TestPersistFailureUploadNotServed: an upload whose snapshot write
// fails is refused (507) and leaves the name as it was — absent, or
// the previous incarnation with its durable state. The refused
// database never serves a query, never acknowledges an update, and
// is not there after a restart.
func TestPersistFailureUploadNotServed(t *testing.T) {
	t.Run("new name", func(t *testing.T) {
		dir := t.TempDir()
		fs := faultfs.NewFaulty(23)
		opts := PersistOptions{FS: fs}
		svc, err := NewPersistentServiceOpts(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc)
		defer ts.Close()
		sys := encryptHospital(t, "refused")

		fs.SetWriteBudget(64)
		err = uploadOnce(ts, "hospital", sys.HostedDB)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusInsufficientStorage {
			t.Fatalf("upload on a full disk: err = %v, want HTTP 507", err)
		}
		fs.SetWriteBudget(-1)

		sys.UseBackend(Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithRetry(RetryPolicy{MaxAttempts: 1}))
		if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err == nil {
			t.Error("update to a refused upload acknowledged")
		}
		if nodes, _, _, err := sys.Query("//patient/pname"); err == nil {
			t.Errorf("refused upload serves queries: %v", core.ResultStrings(nodes))
		}
		ts.Close()

		svc2, err := NewPersistentServiceOpts(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(svc2.dbs) != 0 || len(svc2.Quarantined()) != 0 {
			t.Errorf("restart found %d databases, %d quarantined; want none", len(svc2.dbs), len(svc2.Quarantined()))
		}
	})

	t.Run("previous incarnation", func(t *testing.T) {
		dir := t.TempDir()
		fs := faultfs.NewFaulty(29)
		opts := PersistOptions{FS: fs, CheckpointEvery: 1000}
		sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
		defer ts.Close()
		if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
			t.Fatalf("update: %v", err)
		}

		fs.SetWriteBudget(64)
		err := uploadOnce(ts, "hospital", encryptHospital(t, "replacement").HostedDB)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusInsufficientStorage {
			t.Fatalf("re-upload on a full disk: err = %v, want HTTP 507", err)
		}
		fs.SetWriteBudget(-1)

		// The previous incarnation still serves and takes updates, and
		// both its logged update and the new one survive a restart.
		if got := queryDisease(t, sys); got != "cholera" {
			t.Fatalf("previous incarnation lost its update: disease = %q", got)
		}
		if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "plague"); err != nil {
			t.Fatalf("update after a refused re-upload: %v", err)
		}
		ts.Close()
		svc2, _ := reopenService(t, sys, dir, "hospital", opts)
		if q := svc2.Quarantined(); len(q) != 0 {
			t.Fatalf("restart quarantined %v", q)
		}
		if got := queryDisease(t, sys); got != "plague" {
			t.Errorf("previous incarnation's durable state lost: disease = %q", got)
		}
	})
}

// TestReuploadCrashBeforeLogReset: a crash between a re-upload's
// snapshot rename and its log reset leaves the previous incarnation's
// log beside the new snapshot. The re-upload continued the name's
// generation, so recovery skips every record in that log and serves
// the new database as uploaded.
func TestReuploadCrashBeforeLogReset(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{CheckpointEvery: 1000}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	defer ts.Close()
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	walDir := filepath.Join(dir, "hospital"+walDirExt)
	segs := map[string][]byte{}
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if segs[e.Name()], err = os.ReadFile(filepath.Join(walDir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	fresh := encryptHospital(t, "fresh")
	if err := uploadOnce(ts, "hospital", fresh.HostedDB); err != nil {
		t.Fatalf("re-upload: %v", err)
	}
	ts.Close()
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range segs {
		if err := os.WriteFile(filepath.Join(walDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc2, _ := reopenService(t, fresh, dir, "hospital", opts)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("recovery quarantined the new database: %v", q)
	}
	if rec := svc2.Recoveries()["hospital"]; rec.Replayed != 0 {
		t.Errorf("recovery replayed %d records of the previous incarnation", rec.Replayed)
	}
	if got := queryDisease(t, fresh); got == "cholera" {
		t.Error("the previous incarnation's update leaked into the new database")
	}
}

// TestReplacedIncarnationRefusesUpdates: an update that looked the
// name up before a re-upload replaced it reaches the previous
// incarnation. It is refused, not acknowledged into a database nobody
// serves.
func TestReplacedIncarnationRefusesUpdates(t *testing.T) {
	dir := t.TempDir()
	sys, svc, ts := persistOptsSystem(t, dir, "hospital", PersistOptions{})
	defer ts.Close()
	svc.mu.RLock()
	old := svc.dbs["hospital"]
	svc.mu.RUnlock()
	if err := uploadOnce(ts, "hospital", sys.HostedDB); err != nil {
		t.Fatalf("re-upload: %v", err)
	}
	b := &wire.UpdateBatch{RequestID: 1, Updates: []*wire.Update{{}}}
	raw, err := wire.MarshalUpdateBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if applyErr, persistErr := svc.commitUpdate(old, raw, b); !errors.Is(applyErr, errReplaced) || persistErr != nil {
		t.Errorf("update to a replaced incarnation: apply %v, persist %v; want a refusal", applyErr, persistErr)
	}
}

// TestReuploadRacesUpdates: re-uploads of a name race updates to it.
// Each update lands or is refused because its incarnation was
// replaced; nothing deadlocks, and a restart recovers the name
// without quarantine. Run under -race by `make race`.
func TestReuploadRacesUpdates(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{CheckpointEvery: 3}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	defer ts.Close()
	db := sys.HostedDB
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No breaker: a run of refusals must not stop the writer.
			cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).
				WithRetry(RetryPolicy{MaxAttempts: 1}).WithBreaker(BreakerConfig{})
			for i := 0; i < 20; i++ {
				// Rewrite block 0 with its own ciphertext: a real block
				// write that leaves the state, and its root, as uploaded.
				b := &wire.UpdateBatch{Updates: []*wire.Update{{
					Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: db.Blocks[0]}},
				}}}
				if err := cl.ApplyUpdateBatch(context.Background(), b); err != nil && !errors.Is(err, wire.ErrUpdateRejected) {
					t.Errorf("update racing a re-upload: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := uploadOnce(ts, "hospital", db); err != nil {
			t.Errorf("re-upload %d: %v", i, err)
		}
	}
	wg.Wait()
	ts.Close()
	svc2, _ := reopenService(t, sys, dir, "hospital", opts)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("restart quarantined %v", q)
	}
	if nodes, _, _, err := sys.Query("//patient/pname"); err != nil || len(nodes) != 2 {
		t.Errorf("after restart: %d patients, err %v", len(nodes), err)
	}
}

// TestDurableLayoutOneFilePerDatabase: after an upload, updates and a
// checkpoint, the directory holds exactly the database's snapshot
// file and its log directory, and a restart serves the last update
// on top of the checkpointed blocks.
func TestDurableLayoutOneFilePerDatabase(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{CheckpointEvery: 2}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	defer ts.Close()
	for _, v := range []string{"cholera", "plague", "flu"} { // the second checkpoints
		if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", v); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		}
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"hospital" + dbFileExt, "hospital" + walDirExt + "/"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("directory holds %v, want %v", got, want)
	}
	ts.Close()
	svc2, _ := reopenService(t, sys, dir, "hospital", opts)
	if rec := svc2.Recoveries()["hospital"]; rec.Replayed != 1 {
		t.Errorf("recovery replayed %d records, want the one after the checkpoint", rec.Replayed)
	}
	if got := queryDisease(t, sys); got != "flu" {
		t.Errorf("disease after restart = %q, want flu", got)
	}
}

// countingFS is the real filesystem, counting the file and
// directory fsyncs the durable engine asks for.
type countingFS struct {
	faultfs.OS
	syncs atomic.Int64
}

func (c *countingFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.syncs}, nil
}

func (c *countingFS) SyncDir(path string) error {
	c.syncs.Add(1)
	return c.OS.SyncDir(path)
}

type countingFile struct {
	faultfs.File
	syncs *atomic.Int64
}

func (f countingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestUploadFsyncsIndependentOfBlocks: persisting an upload costs the
// same number of fsyncs for the six-block hospital sample as for a
// NASA document of over a thousand blocks — one file, not one per
// block.
func TestUploadFsyncsIndependentOfBlocks(t *testing.T) {
	nasa, err := core.Host(datagen.NASA(420, 1), datagen.NASASCs(), core.SchemeOpt, []byte("fsyncs"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(nasa.HostedDB.Blocks); n < 1000 {
		t.Fatalf("NASA document has %d blocks; the test needs at least 1000", n)
	}
	uploadSyncs := func(db *wire.HostedDB) int64 {
		fs := &countingFS{}
		svc, err := NewPersistentServiceOpts(t.TempDir(), PersistOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc)
		defer ts.Close()
		before := fs.syncs.Load()
		if err := uploadOnce(ts, "db", db); err != nil {
			t.Fatalf("upload: %v", err)
		}
		return fs.syncs.Load() - before
	}
	hospital := encryptHospital(t, "fsyncs").HostedDB
	small := uploadSyncs(hospital)
	large := uploadSyncs(nasa.HostedDB)
	if small != large {
		t.Errorf("upload fsyncs: %d for %d blocks, %d for %d blocks; want equal",
			small, len(hospital.Blocks), large, len(nasa.HostedDB.Blocks))
	}
	t.Logf("upload fsyncs: %d", small)
}
