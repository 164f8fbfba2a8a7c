package remote

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// corruptDB flips a bit in the middle of name's snapshot file.
func corruptDB(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, name+dbFileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineUniqueDestinations: the same database name
// quarantined twice (corrupt, re-host, corrupt again) must produce
// two distinct corpses — the second must not silently overwrite the
// first — and each QuarantineRecord must point at a file that exists.
func TestQuarantineUniqueDestinations(t *testing.T) {
	dir := t.TempDir()
	persistDB(t, dir, "rotten")
	corruptDB(t, dir, "rotten")

	svc1, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	q1 := svc1.Quarantined()
	if len(q1) != 1 {
		t.Fatalf("first corruption: %d quarantined", len(q1))
	}

	// Re-host the same name, then corrupt the fresh copy too.
	persistDB(t, dir, "rotten")
	corruptDB(t, dir, "rotten")
	svc2, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	q2 := svc2.Quarantined()
	if len(q2) != 1 {
		t.Fatalf("second corruption: %d quarantined", len(q2))
	}
	if q1[0].Moved == q2[0].Moved {
		t.Fatalf("second corpse overwrote the first at %s", q1[0].Moved)
	}
	for _, rec := range []QuarantineRecord{q1[0], q2[0]} {
		if _, err := os.Stat(rec.Moved); err != nil {
			t.Errorf("QuarantineRecord.Moved=%s does not exist: %v", rec.Moved, err)
		}
		if rec.File != "rotten"+dbFileExt || rec.Reason == "" {
			t.Errorf("inaccurate record: %+v", rec)
		}
	}
}

// TestQuarantinedDBNotResurrected: once quarantined, a database must
// stay gone across further reloads — a leftover WAL must not
// re-materialize it, and the reload must not re-quarantine phantom
// files.
func TestQuarantinedDBNotResurrected(t *testing.T) {
	dir := t.TempDir()
	persistDB(t, dir, "rotten")
	corruptDB(t, dir, "rotten")

	svc1, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc1.Quarantined()) != 1 {
		t.Fatalf("setup: quarantine did not trigger")
	}
	// The log went with the corpse: nothing of the database remains
	// in the data directory.
	for _, ext := range []string{dbFileExt, walDirExt} {
		if _, err := os.Stat(filepath.Join(dir, "rotten"+ext)); !os.IsNotExist(err) {
			t.Errorf("quarantine left %s behind (err=%v)", "rotten"+ext, err)
		}
	}

	svc2, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc2.Quarantined()) != 0 {
		t.Errorf("second reload re-quarantined: %v", svc2.Quarantined())
	}
	ts := httptest.NewServer(svc2)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/db/rotten/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("quarantined database resurrected: stats status %d", resp.StatusCode)
	}
}

// TestRehostAfterQuarantinePersists: uploading a fresh copy under a
// quarantined name must work, persist durably, and leave the corpse
// in quarantine untouched.
func TestRehostAfterQuarantinePersists(t *testing.T) {
	dir := t.TempDir()
	persistDB(t, dir, "hospital")
	corruptDB(t, dir, "hospital")
	svc1, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := svc1.Quarantined()
	if len(q) != 1 {
		t.Fatalf("setup: quarantine did not trigger")
	}
	corpse := q[0].Moved

	// Re-host under the same name on the same service, update, stop.
	ts := httptest.NewServer(svc1)
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("rehost"))
	if err != nil {
		t.Fatal(err)
	}
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("re-upload under quarantined name: %v", err)
	}
	sys.UseBackend(cl)
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	ts.Close()

	// Restart: the re-hosted state (with its update) survives, the
	// corpse is still where quarantine put it.
	svc2, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc2.Quarantined()) != 0 {
		t.Fatalf("re-hosted database quarantined on reload: %v", svc2.Quarantined())
	}
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	sys.UseBackend(Dial(ts2.URL, "hospital").WithHTTPClient(ts2.Client()))
	nodes, _, _, err := sys.Query("//patient[.//disease='cholera']/pname")
	if err != nil {
		t.Fatalf("post-restart query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
		t.Errorf("re-hosted update lost: %v", core.ResultStrings(nodes))
	}
	if _, err := os.Stat(corpse); err != nil {
		t.Errorf("corpse vanished from quarantine: %v", err)
	}
}
