package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// boundedSystem hosts the hospital DB on a service whose in-flight
// query slots are capped at n (a unit-cost gate; a queued request is
// shed after queueWait), with client retries disabled so a 503
// surfaces instead of being papered over.
func boundedSystem(t *testing.T, n int, queueWait time.Duration) (*core.System, *Service) {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("sem-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	svc := NewService().WithAdmission(admission.Config{MaxCost: int64(n), QueueWait: queueWait})
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithRetry(NoRetry)
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	return sys, svc
}

// TestMaxInFlightRejectsWhenSaturated occupies the only slot and
// checks a query is shed with 503 once the queue-wait bound passes,
// and that the rejection is counted.
func TestMaxInFlightRejectsWhenSaturated(t *testing.T) {
	sys, svc := boundedSystem(t, 1, 20*time.Millisecond)
	// Saturate the single cost unit by holding a ticket of our own.
	tk, rej := svc.Admission().Admit(context.Background(), admission.Request{Cost: 1})
	if rej != nil {
		t.Fatalf("saturating admit rejected: %+v", rej)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, _, err := sys.QueryContext(ctx, "//patient/pname")
	if err == nil {
		t.Fatalf("query succeeded with the service saturated")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want StatusError 503", err)
	}
	if svc.Rejected() != 1 {
		t.Errorf("Rejected() = %d, want 1", svc.Rejected())
	}

	tk.Done() // free the slot; service must recover
	nodes, _, _, err := sys.Query("//patient/pname")
	if err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(nodes))
	}
}

// TestMaxInFlightQueuesUntilFree checks a queued query waits for a
// slot rather than failing, when its context allows the wait.
func TestMaxInFlightQueuesUntilFree(t *testing.T) {
	sys, svc := boundedSystem(t, 1, 10*time.Second)
	tk, rej := svc.Admission().Admit(context.Background(), admission.Request{Cost: 1})
	if rej != nil {
		t.Fatalf("saturating admit rejected: %+v", rej)
	}

	done := make(chan error, 1)
	go func() {
		_, _, _, err := sys.Query("//patient/pname")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("query finished while slot held (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
	}
	tk.Done()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued query: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("queued query never acquired the freed slot")
	}
	if svc.Rejected() != 0 {
		t.Errorf("Rejected() = %d, want 0", svc.Rejected())
	}
}

// TestMaxInFlightManyClients runs far more concurrent queries than
// slots and checks they all succeed (queueing, not rejection, is the
// steady-state behavior for patient callers) with identical answers.
func TestMaxInFlightManyClients(t *testing.T) {
	sys, _ := boundedSystem(t, 2, 0)
	want, _, _, err := sys.Query("//patient[.//disease='leukemia']/pname")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	wantStrs := core.ResultStrings(want)

	const clients = 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nodes, _, _, err := sys.QueryPath(xpath.MustParse("//patient[.//disease='leukemia']/pname"))
			if err != nil {
				errs[g] = err
				return
			}
			got := core.ResultStrings(nodes)
			if len(got) != len(wantStrs) || (len(got) > 0 && got[0] != wantStrs[0]) {
				errs[g] = errShape{len(got)}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", g, err)
		}
	}
}
