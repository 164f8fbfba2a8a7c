package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// streamQueries is the comparison set for the streamed path; the
// last one matches nothing (an empty answer must stream cleanly too).
var streamQueries = []string{
	"//patient/pname",
	"//patient[.//disease='diarrhea']/SSN",
	"//patient[age>36]",
	"//insurance/@coverage",
	"//nosuch",
}

func checkQueries(t *testing.T, sys *core.System) {
	t.Helper()
	doc, _ := xmltree.ParseString(hospitalXML)
	for _, q := range streamQueries {
		nodes, _, tm, err := sys.Query(q)
		if err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
		got := core.ResultStrings(nodes)
		want := core.ResultStrings(xpath.Evaluate(doc, xpath.MustParse(q)))
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %v\n want %v", q, got, want)
		}
		if !tm.Streamed {
			t.Errorf("%s: answer (%d bytes) was not streamed", q, tm.AnswerBytes)
		}
		if tm.StreamBytes <= 0 || tm.StreamChunks <= 0 {
			t.Errorf("%s: streamed but stats empty: %d bytes, %d chunks", q, tm.StreamBytes, tm.StreamChunks)
		}
	}
}

func TestStreamedQueryEquivalence(t *testing.T) {
	sys, _, ts := remoteSystemClient(t)
	checkQueries(t, sys)

	// The per-database stats must account for the streamed answers.
	resp, err := ts.Client().Get(ts.URL + "/db/hospital/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var stats struct {
		Stream struct {
			Answers int64 `json:"answers"`
			Bytes   int64 `json:"bytes"`
			Chunks  int64 `json:"chunks"`
		} `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if stats.Stream.Answers != int64(len(streamQueries)) || stats.Stream.Bytes == 0 || stats.Stream.Chunks == 0 {
		t.Errorf("stream stats do not count every answer: %+v after %d queries", stats.Stream, len(streamQueries))
	}
}

// faultOnce proxies one service and corrupts the first streamed query
// response: mode "truncate" cuts it off mid-body, mode "flip" flips
// one byte. Every later request passes through untouched.
type faultOnce struct {
	svc  http.Handler
	mode string
	done atomic.Bool
}

func (f *faultOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.done.Load() || !strings.HasSuffix(r.URL.Path, "/query") {
		f.svc.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	f.svc.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Header().Get("Content-Type") == streamContentType && len(body) > 64 {
		f.done.Store(true)
		switch f.mode {
		case "truncate":
			body = body[:len(body)/2]
		case "flip":
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 0x40
		}
	}
	for k, v := range rec.Header() {
		w.Header()[k] = append([]string(nil), v...)
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestStreamFaultRetries exercises the fault model of PR 1 on the
// streamed path: a stream that dies mid-body (or arrives corrupted,
// caught by the trailer checksum) is a retryable torn read — the
// client retries the whole attempt, and the caller sees a complete,
// correct answer, never a truncated one.
func TestStreamFaultRetries(t *testing.T) {
	for _, mode := range []string{"truncate", "flip"} {
		t.Run(mode, func(t *testing.T) {
			doc, _ := xmltree.ParseString(hospitalXML)
			sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("remote-test"))
			if err != nil {
				t.Fatalf("Host: %v", err)
			}
			ts := httptest.NewServer(&faultOnce{svc: NewService(), mode: mode})
			t.Cleanup(ts.Close)
			cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).
				WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1}).
				withJitterSeed(1)
			if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
				t.Fatalf("Upload: %v", err)
			}
			sys.UseBackend(cl)

			nodes, _, tm, err := sys.Query("//patient/pname")
			if err != nil {
				t.Fatalf("query through fault: %v", err)
			}
			got := core.ResultStrings(nodes)
			sort.Strings(got)
			if want := []string{"<pname>Betty</pname>", "<pname>Matt</pname>"}; !reflect.DeepEqual(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
			if !tm.Streamed {
				t.Errorf("retried answer was not streamed")
			}
			if !ft(ts).done.Load() {
				t.Fatalf("fault was never injected; test is vacuous")
			}
		})
	}
}

// ft recovers the faultOnce behind a test server (test helper).
func ft(ts *httptest.Server) *faultOnce { return ts.Config.Handler.(*faultOnce) }

// TestStreamResponseTooLarge pins the response-size cap on the
// streamed path: a body that would exceed WithMaxResponseBytes
// surfaces as ErrResponseTooLarge and is not retried.
func TestStreamResponseTooLarge(t *testing.T) {
	sys, cl, _ := remoteSystemClient(t)
	cl.WithMaxResponseBytes(128).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1})
	_, _, _, err := sys.Query("//patient")
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("err = %v, want ErrResponseTooLarge", err)
	}
}

// TestStreamWithIntegrityAndCache runs the streamed path with the
// Merkle verifier on: streamed answers verify and their blocks decrypt
// while they arrive, and the same query, asked again and answered from
// the server's answer cache, is streamed and verified again.
func TestStreamWithIntegrityAndCache(t *testing.T) {
	sys, cl, _ := remoteSystemClient(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	cl.WithVerifier(sys.Verifier())

	nodes, _, tm, err := sys.Query("//patient")
	if err != nil {
		t.Fatalf("streamed query: %v", err)
	}
	if !tm.Streamed || tm.Verify <= 0 {
		t.Fatalf("answer streamed=%v verify=%v, want a streamed, verified answer", tm.Streamed, tm.Verify)
	}
	if tm.BlocksShipped == 0 {
		t.Fatalf("query shipped no blocks; the decrypt check is vacuous")
	}

	nodes2, _, tm2, err := sys.Query("//patient")
	if err != nil {
		t.Fatalf("repeated query: %v", err)
	}
	if !tm2.Streamed || tm2.Verify <= 0 {
		t.Errorf("repeated answer streamed=%v verify=%v, want a streamed, verified answer", tm2.Streamed, tm2.Verify)
	}
	if got, want := core.ResultStrings(nodes2), core.ResultStrings(nodes); !reflect.DeepEqual(got, want) {
		t.Errorf("repeated answer %v != first answer %v", got, want)
	}
}
