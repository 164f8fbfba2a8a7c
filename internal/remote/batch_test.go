package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/walog"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// hostHospital uploads the hospital database to svc over httptest and
// returns the owner system plus a dialed client.
func hostHospital(t *testing.T, svc *Service) (*core.System, *httptest.Server, *Client) {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("batch-test"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatal(err)
	}
	return sys, ts, cl
}

// blockUpdate replaces block 0's ciphertext (transport-level tests
// don't decrypt afterwards, so any bytes do).
func blockUpdate(ct ...byte) *wire.Update {
	return &wire.Update{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: ct}}}
}

// batchOf frames members under a request ID.
func batchOf(id uint64, us ...*wire.Update) *wire.UpdateBatch {
	return &wire.UpdateBatch{RequestID: id, Updates: us}
}

func (s *Service) hospital(t *testing.T) *hosted {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := s.dbs["hospital"]
	if h == nil {
		t.Fatal("hospital not hosted")
	}
	return h
}

func TestRemoteBatchFrame(t *testing.T) {
	svc := NewService()
	_, ts, cl := hostHospital(t, svc)
	cl.WithRetry(NoRetry)
	h := svc.hospital(t)
	gen0 := h.srv.Generation()

	b := batchOf(77, blockUpdate(9, 9), blockUpdate(8, 8, 8))
	if err := cl.ApplyUpdateBatch(context.Background(), b); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if got := h.srv.Generation(); got != gen0+1 {
		t.Fatalf("batch of 2 bumped generation %d times, want 1", got-gen0)
	}
	if h.updBatches.Load() != 1 || h.updBatched.Load() != 2 || h.updMaxBatch.Load() != 2 || h.updSingles.Load() != 0 {
		t.Fatalf("batch counters: batches=%d batched=%d maxBatch=%d singles=%d",
			h.updBatches.Load(), h.updBatched.Load(), h.updMaxBatch.Load(), h.updSingles.Load())
	}

	// A retry of the frame dedups on its request ID.
	if err := cl.ApplyUpdateBatch(context.Background(), b); err != nil {
		t.Fatalf("batch retry: %v", err)
	}
	if svc.DedupHits() != 1 {
		t.Fatalf("dedup hits = %d after batch retry", svc.DedupHits())
	}
	if got := h.srv.Generation(); got != gen0+1 {
		t.Fatalf("retry moved the generation to %d", got)
	}

	// A batch of one is still a batch: same path, counted as a single.
	if err := cl.ApplyUpdateBatch(context.Background(), batchOf(78, blockUpdate(7))); err != nil {
		t.Fatalf("batch of one: %v", err)
	}
	if h.updSingles.Load() != 1 || h.updBatches.Load() != 1 {
		t.Fatalf("after a lone update: singles=%d batches=%d", h.updSingles.Load(), h.updBatches.Load())
	}

	// One bad member rejects the whole batch (422) and moves nothing;
	// a frame that does not decode — garbage, or a retired SXU2 single
	// update — is a 400.
	gen1 := h.srv.Generation()
	bad := &wire.Update{Blocks: []wire.BlockUpdate{{ID: 1 << 20, Ciphertext: []byte{1}}}}
	err := cl.ApplyUpdateBatch(context.Background(), batchOf(79, blockUpdate(5, 5), bad))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("batch with an out-of-range member: %v", err)
	}
	for _, body := range []string{"garbage", "SXU2\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"} {
		resp, err := ts.Client().Post(ts.URL+"/db/hospital/update", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("undecodable frame %q answered %d, want 400", body, resp.StatusCode)
		}
	}
	if got := h.srv.Generation(); got != gen1 {
		t.Fatalf("rejected frames moved the generation %d -> %d", gen1, got)
	}
}

func TestBatchRecordReplaysAtomically(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, cl := hostHospital(t, svc)
	h := svc.hospital(t)

	b := batchOf(401,
		&wire.Update{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: []byte{1, 2, 3}}}},
		&wire.Update{Blocks: []wire.BlockUpdate{{ID: 1, Ciphertext: []byte{4, 5}}}},
		&wire.Update{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: []byte{6, 7, 8}}}},
	)
	if err := cl.ApplyUpdateBatch(context.Background(), b); err != nil {
		t.Fatalf("batch: %v", err)
	}
	wantGen := h.srv.Generation()
	ts.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the batch record — one WAL record for all three members
	// — replays as one unit at its original generation.
	svc2, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if q := svc2.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined on reload: %+v", q)
	}
	h2 := svc2.hospital(t)
	if got := h2.srv.Generation(); got != wantGen {
		t.Fatalf("recovered generation %d, want %d", got, wantGen)
	}
	rec := svc2.Recoveries()["hospital"]
	if rec.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the batch)", rec.Replayed)
	}
	if got := h2.srv.CurrentDB().Blocks[0]; len(got) != 3 || got[0] != 6 {
		t.Fatalf("block 0 after replay = %v (later member must win)", got)
	}
	if got := h2.srv.CurrentDB().Blocks[1]; len(got) != 2 || got[0] != 4 {
		t.Fatalf("block 1 after replay = %v", got)
	}
	if !h2.seen[401] {
		t.Fatal("request id 401 not re-armed after replay")
	}
}

// mixedLog commits a one-member, a three-member and another
// one-member batch to a fresh durable service and shuts it down,
// leaving all three records in the WAL of the returned directory.
func mixedLog(t *testing.T) (dir string, ids []uint64, gen, epoch uint64) {
	t.Helper()
	dir = t.TempDir()
	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, cl := hostHospital(t, svc)
	for _, b := range []*wire.UpdateBatch{
		batchOf(601, blockUpdate(1)),
		batchOf(602, blockUpdate(2, 2), blockUpdate(3, 3, 3), blockUpdate(4, 4, 4, 4)),
		batchOf(603, blockUpdate(5)),
	} {
		if err := cl.ApplyUpdateBatch(context.Background(), b); err != nil {
			t.Fatalf("batch %d: %v", b.RequestID, err)
		}
		ids = append(ids, b.RequestID)
	}
	h := svc.hospital(t)
	gen, epoch = h.srv.Generation(), h.srv.Epoch()
	ts.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ids, gen, epoch
}

// TestRecoveryReplaysMixedBatchSizes: one log holding one-member and
// many-member records recovers through the one decode, record by
// record; a record of a type recovery does not know, or one whose
// payload stops inside a member, quarantines the database instead of
// serving a guess.
func TestRecoveryReplaysMixedBatchSizes(t *testing.T) {
	dir, ids, wantGen, _ := mixedLog(t)
	svc, err := NewPersistentService(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if q := svc.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined on reload: %+v", q)
	}
	h := svc.hospital(t)
	if rec := svc.Recoveries()["hospital"]; rec.Replayed != 3 || rec.RecoveredGen != wantGen {
		t.Fatalf("recovery: %+v, want 3 records to gen %d", rec, wantGen)
	}
	if got := h.srv.CurrentDB().Blocks[0]; len(got) != 1 || got[0] != 5 {
		t.Fatalf("block 0 after replay = %v, want the last record's", got)
	}
	for _, id := range ids {
		if !h.seen[id] {
			t.Fatalf("request id %d not re-armed after replay", id)
		}
	}

	// One more CRC-valid record behind the three good ones: whatever
	// recovery cannot decode must quarantine.
	good, err := wire.MarshalUpdateBatch(batchOf(604, blockUpdate(6), blockUpdate(7)))
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]walog.Record{
		"unknown type":   {Type: 9, Payload: good},
		"damaged member": {Type: recUpdateBatch, Payload: good[:len(good)-2]},
	} {
		t.Run(name, func(t *testing.T) {
			dir, _, gen, epoch := mixedLog(t)
			log, _, err := walog.Open(filepath.Join(dir, "hospital"+walDirExt), walog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rec.Epoch, rec.Gen = epoch, gen+1
			tk, err := log.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			log.Close()
			svc, err := NewPersistentService(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if q := svc.Quarantined(); len(q) != 1 {
				t.Fatalf("quarantined %d databases, want 1", len(q))
			}
			if _, ok := svc.Recoveries()["hospital"]; ok {
				t.Fatal("database with an undecodable record is being served")
			}
		})
	}
}
