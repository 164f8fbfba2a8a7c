package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/wire"
	"repro/internal/xmltree"
)

// flakyBackend wraps a working Backend and can be switched into a
// hard-down state where every call fails.
type flakyBackend struct {
	real Backend
	down bool
}

var errBackendDown = errors.New("backend down")

// staleSCs mirror the remote suite's constraints: disease values end
// up inside encryption blocks, so UpdateLeafValues can reach them.
var staleSCs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//patient:(/pname, //disease)",
	"//treat:(/disease, /doctor)",
}

func (f *flakyBackend) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, error) {
	if f.down {
		return nil, errBackendDown
	}
	return f.real.Execute(ctx, q)
}

func (f *flakyBackend) Extreme(ctx context.Context, lo, hi uint64, max bool) (int, []byte, bool, error) {
	if f.down {
		return 0, nil, false, errBackendDown
	}
	return f.real.Extreme(ctx, lo, hi, max)
}

func (f *flakyBackend) ApplyUpdateBatch(ctx context.Context, u *wire.UpdateBatch) error {
	if f.down {
		return errBackendDown
	}
	return f.real.ApplyUpdateBatch(ctx, u)
}

// TestStaleFallback: with the fallback enabled, a query that
// succeeded once is re-served from the answer cache when the backend
// goes down — marked stale — and identical to the live answer.
func TestStaleFallback(t *testing.T) {
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Host(doc, staleSCs, SchemeOpt, []byte("stale-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	fb := &flakyBackend{real: sys.Server}
	sys.UseBackend(fb)
	sys.EnableStaleFallback(0, 0)

	const q = "//patient[.//disease='diarrhea']/pname"
	nodes, _, tm, err := sys.Query(q)
	if err != nil {
		t.Fatalf("live query: %v", err)
	}
	if tm.Stale {
		t.Error("live answer marked stale")
	}
	live := ResultStrings(nodes)

	fb.down = true
	nodes, _, tm, err = sys.Query(q)
	if err != nil {
		t.Fatalf("query with backend down (cache populated): %v", err)
	}
	if !tm.Stale {
		t.Error("cached answer not marked stale")
	}
	if got := ResultStrings(nodes); len(got) != len(live) || got[0] != live[0] {
		t.Errorf("stale answer diverged: %v vs %v", got, live)
	}

	// A query never seen live has nothing to fall back to.
	if _, _, _, err := sys.Query("//patient/SSN"); !errors.Is(err, errBackendDown) {
		t.Errorf("uncached query: want backend error, got %v", err)
	}
}

// TestStaleFallbackDisabledByDefault: without opting in, a dead
// backend is a hard error even for previously answered queries.
func TestStaleFallbackDisabledByDefault(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, nil, SchemeOpt, []byte("no-stale"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	fb := &flakyBackend{real: sys.Server}
	sys.UseBackend(fb)
	const q = "//patient/pname"
	if _, _, _, err := sys.Query(q); err != nil {
		t.Fatalf("live query: %v", err)
	}
	fb.down = true
	if _, _, _, err := sys.Query(q); !errors.Is(err, errBackendDown) {
		t.Errorf("want hard failure without fallback, got %v", err)
	}
}

// TestStaleCacheInvalidatedByUpdate: an applied update clears the
// cache, so the fallback can never serve a pre-update answer.
func TestStaleCacheInvalidatedByUpdate(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, staleSCs, SchemeOpt, []byte("inval"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	fb := &flakyBackend{real: sys.Server}
	sys.UseBackend(fb)
	sys.EnableStaleFallback(0, 0)

	const q = "//patient[.//disease='diarrhea']/pname"
	if _, _, _, err := sys.Query(q); err != nil {
		t.Fatalf("live query: %v", err)
	}
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	fb.down = true
	// The cached pre-update answer must be gone: hard error, not a
	// stale lie.
	if _, _, _, err := sys.Query(q); !errors.Is(err, errBackendDown) {
		t.Errorf("want hard failure after invalidation, got %v", err)
	}
}
