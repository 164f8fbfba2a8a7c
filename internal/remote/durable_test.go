package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// Fault-matrix tests for the durable engine: each injected disk
// failure mode (torn write, fsync lie, ENOSPC/short write, crash at
// offset) has a dedicated test proving it is either survived without
// acknowledged-update loss or detected and surfaced as a typed
// error — never silent corruption.

// persistOptsSystem hosts hospitalXML on a persistent service with
// explicit options, returning the owner system, the service, and the
// test server (not auto-closed).
func persistOptsSystem(t *testing.T, dir, name string, opts PersistOptions) (*core.System, *Service, *httptest.Server) {
	t.Helper()
	svc, err := NewPersistentServiceOpts(dir, opts)
	if err != nil {
		t.Fatalf("NewPersistentServiceOpts: %v", err)
	}
	ts := httptest.NewServer(svc)
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("durable-"+name))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	cl := Dial(ts.URL, name).WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	return sys, svc, ts
}

// reopenService restarts the service over the same directory and
// points sys at it.
func reopenService(t *testing.T, sys *core.System, dir, name string, opts PersistOptions) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := NewPersistentServiceOpts(dir, opts)
	if err != nil {
		t.Fatalf("reopen service: %v", err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	sys.UseBackend(Dial(ts.URL, name).WithHTTPClient(ts.Client()))
	return svc, ts
}

// queryDisease returns the disease of Matt's record, the value the
// tests update.
func queryDisease(t *testing.T, sys *core.System) string {
	t.Helper()
	nodes, _, _, err := sys.Query("//patient[pname='Matt']//disease")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(nodes) != 1 {
		t.Fatalf("query returned %d nodes", len(nodes))
	}
	return nodes[0].LeafValue()
}

// TestUpdateRidesWALNotSnapshot: between checkpoints an update's only
// durable trace is its WAL record; a restart (no crash, no explicit
// close) must replay it.
func TestUpdateRidesWALNotSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{CheckpointEvery: 1000}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	snapBefore, err := os.ReadFile(filepath.Join(dir, "hospital"+dbFileExt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	ts.Close()
	// The snapshot did not move — the update lives in the WAL alone.
	snapAfter, _ := os.ReadFile(filepath.Join(dir, "hospital"+dbFileExt))
	if len(snapBefore) != len(snapAfter) {
		t.Fatalf("snapshot rewritten by a WAL-path update (%d -> %d bytes)", len(snapBefore), len(snapAfter))
	}
	svc2, _ := reopenService(t, sys, dir, "hospital", opts)
	if got := queryDisease(t, sys); got != "cholera" {
		t.Errorf("acked update lost: disease = %q", got)
	}
	rec := svc2.Recoveries()["hospital"]
	if rec.Replayed < 1 {
		t.Errorf("recovery stats claim %d replayed records", rec.Replayed)
	}
	if rec.RecoveredGen <= rec.SnapshotGen {
		t.Errorf("recovery did not advance the generation: %+v", rec)
	}
}

// TestCrashKeepsAckedUpdate: a power cut right after the update was
// acknowledged — everything unsynced torn away, including a possible
// partial record after the acked one — must recover the acked state.
func TestCrashKeepsAckedUpdate(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(7)
	fs.TornTails(true)
	opts := PersistOptions{FS: fs, CheckpointEvery: 1000}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	fs.Crash()
	ts.Close()
	fs.Reopen()

	svc2, _ := reopenService(t, sys, dir, "hospital", opts)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("clean crash quarantined %v", q)
	}
	if got := queryDisease(t, sys); got != "cholera" {
		t.Errorf("acked update lost to crash: disease = %q", got)
	}
}

// TestTornWALTailTruncated: a record torn mid-append (the process
// died inside Write) is the expected crash signature — recovery must
// truncate it away, report it, and serve the prior acked state.
func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{CheckpointEvery: 1000}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	ts.Close()

	// Append half a record frame to the last WAL segment by hand.
	segs, err := filepath.Glob(filepath.Join(dir, "hospital"+walDirExt, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible frame prefix: huge length, then nothing.
	if _, err := f.Write([]byte{0x00, 0x00, 0x30, 0x39, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2, _ := reopenService(t, sys, dir, "hospital", opts)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("torn tail quarantined the database: %v", q)
	}
	rec := svc2.Recoveries()["hospital"]
	if !rec.TornTail || rec.TruncatedBytes == 0 {
		t.Errorf("torn tail not reported: %+v", rec)
	}
	if got := queryDisease(t, sys); got != "cholera" {
		t.Errorf("acked update lost to torn tail: disease = %q", got)
	}
}

// TestFsyncLieNeverCorrupts: a disk that acknowledges Sync without
// persisting (firmware write cache) can lose acknowledged updates at
// power cut — no software can prevent that — but recovery must still
// come back to a consistent earlier state, never to garbage and never
// to quarantine.
func TestFsyncLieNeverCorrupts(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(11)
	opts := PersistOptions{FS: fs, CheckpointEvery: 1000}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)

	// The upload's checkpoint was honest; the update's WAL fsync lies.
	fs.LieOnSync(true)
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	fs.Crash()
	ts.Close()
	fs.Reopen()
	fs.LieOnSync(false)

	svc2, _ := reopenService(t, sys, dir, "hospital", opts)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("fsync lie produced quarantine (corruption): %v", q)
	}
	// The update is gone — the disk lied — but the pre-update state
	// serves cleanly at the generation the last honest fsync captured.
	s := svc2.dbs["hospital"]
	if s == nil {
		t.Fatal("database did not survive fsync-lie crash at all")
	}
	if gen := s.srv.Generation(); gen != 1 {
		t.Errorf("generation %d survived a lying fsync; want the upload state (1)", gen)
	}
}

// TestENOSPCSurfacesDiskFull: storage exhaustion mid-update must
// surface as a typed disk-full failure (HTTP 507, ErrDiskFull
// server-side), leave the previous durable state intact, and heal
// once space returns.
func TestENOSPCSurfacesDiskFull(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(13)
	opts := PersistOptions{FS: fs, CheckpointEvery: 1000}
	sys, svc, ts := persistOptsSystem(t, dir, "hospital", opts)
	defer ts.Close()

	fs.SetWriteBudget(64) // room for almost nothing
	_, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera")
	if err == nil {
		t.Fatal("update on a full disk succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInsufficientStorage {
		t.Errorf("disk-full update error = %v; want HTTP 507", err)
	}
	// The client was told the update failed ambiguously (5xx): it
	// stashes it for reconciliation rather than assuming either way.
	if !sys.UpdatePending() {
		t.Error("ambiguous disk-full failure did not leave a pending update")
	}

	h := svc.dbs["hospital"]
	if n := h.diskFullFailures.Load(); n == 0 {
		t.Error("disk-full failure not counted as such")
	}

	// Space returns: reconciliation resends under the same request ID
	// and the update lands durably.
	fs.SetWriteBudget(-1)
	if _, err := sys.Reconcile(context.Background()); err != nil {
		t.Fatalf("Reconcile after space freed: %v", err)
	}
	ts.Close()
	reopenService(t, sys, dir, "hospital", opts)
	if got := queryDisease(t, sys); got != "cholera" {
		t.Errorf("reconciled update not durable: disease = %q", got)
	}
}

// TestShortWriteDetected: a write cut short by exhaustion mid-record
// must not be mistaken for a valid record on recovery — the torn
// bytes are truncated and the prior state serves.
func TestShortWriteDetected(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(17)
	opts := PersistOptions{FS: fs, CheckpointEvery: 1000}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	// The next update's WAL append is cut part-way: a short write.
	fs.SetWriteBudget(32)
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "plague"); err == nil {
		t.Fatal("short-written update acknowledged")
	}
	fs.Crash()
	ts.Close()
	fs.Reopen()
	fs.SetWriteBudget(-1)

	svc2, _ := reopenService(t, sys, dir, "hospital", opts)
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("short write quarantined the database: %v", q)
	}
	s := svc2.dbs["hospital"]
	if s == nil {
		t.Fatal("database lost to a short write")
	}
	// The acked update survived; the short-written one did not become
	// a phantom record.
	if gen := s.srv.Generation(); gen != 2 {
		t.Errorf("recovered generation %d; want 2 (upload + one acked update)", gen)
	}
}

// TestSnapshotRootMismatchQuarantined: a snapshot whose checksum is
// intact but whose state does not hash to its recorded Merkle root —
// a forged or mispatched file — must be quarantined, never served.
func TestSnapshotRootMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{}
	sys, _, ts := persistOptsSystem(t, dir, "hospital", opts)
	_ = sys
	ts.Close()

	path := filepath.Join(dir, "hospital"+dbFileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, gen, root, err := wire.UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	root[0] ^= 0x01 // forge the trust anchor
	forged, err := wire.MarshalSnapshot(db, gen, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := NewPersistentServiceOpts(dir, opts)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	q := svc2.Quarantined()
	if len(q) != 1 {
		t.Fatalf("forged root not quarantined: %v", q)
	}
	if svc2.dbs["hospital"] != nil {
		t.Fatal("state failing its root cross-check was served")
	}
}

// TestPersistFailureNotDedupAckedWAL: an update whose durability step
// failed must not be dedup-acknowledged on retry — the server has to
// re-apply and re-persist it, or the client would believe durable
// what never reached disk.
func TestPersistFailureNotDedupAckedWAL(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(19)
	opts := PersistOptions{FS: fs, CheckpointEvery: 1000}
	sys, svc, ts := persistOptsSystem(t, dir, "hospital", opts)
	defer ts.Close()

	fs.SetWriteBudget(16)
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err == nil {
		t.Fatal("update with failing persistence acknowledged")
	}
	fs.SetWriteBudget(-1)
	if _, err := sys.Reconcile(context.Background()); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if n := svc.DedupHits(); n != 0 {
		t.Errorf("retry of a never-persisted update dedup-acked (%d hits)", n)
	}
	ts.Close()
	reopenService(t, sys, dir, "hospital", opts)
	if got := queryDisease(t, sys); got != "cholera" {
		t.Errorf("retried update not durable: disease = %q", got)
	}
}
