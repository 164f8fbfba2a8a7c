// These tests pin where a hosted database's encrypted blocks are
// stored durably: inline in the database's one snapshot file,
// dir/<name>.sxdb, written by remote and framed by wire. There is no
// separate block store; the tests hold that file to the guarantees a
// block store owes its blocks — byte-exact round trip, detected bit
// flips and truncation, swept torn writes, the old blocks kept across
// a crash mid-write, and a typed disk-full failure that commits
// nothing. They use only the exported API.
package remote_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/remote"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

const hospitalXML = `
<hospital>
  <patient>
    <pname>Betty</pname><SSN>763895</SSN>
    <insurance coverage="1000000"><policy>34221</policy></insurance>
    <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
  </patient>
  <patient>
    <pname>Matt</pname><SSN>276543</SSN>
    <insurance coverage="10000"><policy>26544</policy></insurance>
    <treat><disease>leukemia</disease><doctor>Walker</doctor></treat>
  </patient>
</hospital>`

var scs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//treat:(/disease, /doctor)",
}

// hostDB encrypts the hospital document under key; a different key
// gives different block ciphertext for the same document.
func hostDB(t *testing.T, key string) *wire.HostedDB {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte(key))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if len(sys.HostedDB.Blocks) == 0 {
		t.Fatal("hosted database has no blocks")
	}
	return sys.HostedDB
}

func openService(t *testing.T, dir string, fs faultfs.FS) *remote.Service {
	t.Helper()
	svc, err := remote.NewPersistentServiceOpts(dir, remote.PersistOptions{FS: fs})
	if err != nil {
		t.Fatalf("NewPersistentServiceOpts: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func dbFile(dir, name string) string { return filepath.Join(dir, name+".sxdb") }

// loadBlocks decodes the blocks stored in name's snapshot file.
func loadBlocks(t *testing.T, dir, name string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(dbFile(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	db, _, _, err := wire.UnmarshalSnapshot(data)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot: %v", err)
	}
	return db.Blocks
}

func sameBlocks(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stored %d blocks, want %d", len(got), len(want))
	}
	for id := range want {
		if !bytes.Equal(got[id], want[id]) {
			t.Fatalf("block %d differs from the uploaded ciphertext", id)
		}
	}
}

// served reports the status /db/<name>/stats answers with.
func served(svc *remote.Service, name string) int {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/db/"+name+"/stats", nil))
	return rec.Code
}

// mustQuarantine reloads dir and checks that name's file was set
// aside rather than served.
func mustQuarantine(t *testing.T, dir, name string) {
	t.Helper()
	svc := openService(t, dir, nil)
	q := svc.Quarantined()
	if len(q) != 1 || q[0].File != name+".sxdb" {
		t.Fatalf("quarantined = %+v, want exactly %s.sxdb", q, name)
	}
	if code := served(svc, name); code != http.StatusNotFound {
		t.Fatalf("damaged database answered %d, want 404", code)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := hostDB(t, "round-trip")
	if err := remote.RegisterLocal(openService(t, dir, nil), "hospital", db); err != nil {
		t.Fatal(err)
	}
	sameBlocks(t, loadBlocks(t, dir, "hospital"), db.Blocks)
}

func TestPutBatchAndLoadAll(t *testing.T) {
	dir := t.TempDir()
	want := map[string]*wire.HostedDB{"a": hostDB(t, "key a"), "b": hostDB(t, "key b")}
	svc := openService(t, dir, nil)
	for name, db := range want {
		if err := remote.RegisterLocal(svc, name, db); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen: each database loads, and its file holds exactly its own
	// blocks.
	svc2 := openService(t, dir, nil)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined on reload: %+v", q)
	}
	for name, db := range want {
		if code := served(svc2, name); code != http.StatusOK {
			t.Fatalf("%s answered %d after reload, want 200", name, code)
		}
		sameBlocks(t, loadBlocks(t, dir, name), db.Blocks)
	}
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	db := hostDB(t, "bit-flip")
	if err := remote.RegisterLocal(openService(t, dir, nil), "hospital", db); err != nil {
		t.Fatal(err)
	}
	path := dbFile(dir, "hospital")
	data, _ := os.ReadFile(path)
	blk := db.Blocks[0]
	at := bytes.Index(data, blk)
	if at < 0 {
		t.Fatal("block ciphertext not found in the snapshot file")
	}
	data[at+len(blk)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)

	if _, _, _, err := wire.UnmarshalSnapshot(data); err == nil {
		t.Fatal("flipped bit in a block not detected")
	}
	mustQuarantine(t, dir, "hospital")
}

func TestTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	if err := remote.RegisterLocal(openService(t, dir, nil), "hospital", hostDB(t, "truncate")); err != nil {
		t.Fatal(err)
	}
	path := dbFile(dir, "hospital")
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-4], 0o644)
	if _, _, _, err := wire.UnmarshalSnapshot(data[:len(data)-4]); err == nil {
		t.Fatal("truncation not detected")
	}
	mustQuarantine(t, dir, "hospital")
}

func TestOpenSweepsTornTmp(t *testing.T) {
	dir := t.TempDir()
	db := hostDB(t, "torn-tmp")
	if err := remote.RegisterLocal(openService(t, dir, nil), "hospital", db); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a torn tmp behind.
	tmp := dbFile(dir, "hospital") + ".tmp"
	os.WriteFile(tmp, []byte("half a blo"), 0o644)

	svc := openService(t, dir, nil)
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp not swept on open")
	}
	if code := served(svc, "hospital"); code != http.StatusOK {
		t.Fatalf("database answered %d after sweep, want 200", code)
	}
	sameBlocks(t, loadBlocks(t, dir, "hospital"), db.Blocks)
}

func TestCrashMidPutKeepsOldBlock(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(21)
	v1, v2 := hostDB(t, "version one"), hostDB(t, "version two")
	svc := openService(t, dir, fs)
	if err := remote.RegisterLocal(svc, "hospital", v1); err != nil {
		t.Fatal(err)
	}
	// Crash while a re-upload replaces the file, before its rename.
	fs.CrashAfterWrites(10)
	if err := remote.RegisterLocal(svc, "hospital", v2); err == nil {
		t.Fatal("re-upload on a crashed filesystem succeeded")
	}
	fs.Reopen()

	svc2 := openService(t, dir, fs)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("old blocks must survive a torn replacement: quarantined %+v", q)
	}
	sameBlocks(t, loadBlocks(t, dir, "hospital"), v1.Blocks)
}

func TestENOSPCSurfacesTyped(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(22)
	svc := openService(t, dir, fs)
	fs.SetWriteBudget(4)
	err := remote.RegisterLocal(svc, "hospital", hostDB(t, "enospc"))
	if !errors.Is(err, remote.ErrDiskFull) {
		t.Fatalf("upload on a full disk: err = %v, want ErrDiskFull", err)
	}
	fs.SetWriteBudget(-1)
	// The failed write left no committed file, and nothing serves.
	if _, err := os.Stat(dbFile(dir, "hospital")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed upload left a snapshot file: %v", err)
	}
	if code := served(svc, "hospital"); code != http.StatusNotFound {
		t.Fatalf("refused upload answered %d, want 404", code)
	}
}
