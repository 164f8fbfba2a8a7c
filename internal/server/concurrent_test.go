package server

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/datagen"
	"repro/internal/sc"
	"repro/internal/scheme"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// bootNASA hosts a generated NASA document with hundreds of datasets,
// so one query's contexts, candidates and anchors run into the
// hundreds.
func bootNASA(t *testing.T) (*client.Client, *Server) {
	t.Helper()
	doc := datagen.NASA(300, 3)
	cs, err := sc.ParseAll(datagen.NASASCs())
	if err != nil {
		t.Fatalf("scs: %v", err)
	}
	sch, err := scheme.Optimal(doc, cs)
	if err != nil {
		t.Fatalf("scheme: %v", err)
	}
	c, err := client.New([]byte("concurrent-test"))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	db, err := c.Encrypt(doc, sch)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	return c, New(db)
}

// TestConcurrentExecuteIdenticalAnswers runs the same query from
// many goroutines against one server and checks every answer matches
// the single-threaded one: concurrent queries share the snapshot and
// the cross-query caches, and must not disturb each other.
func TestConcurrentExecuteIdenticalAnswers(t *testing.T) {
	c, s := bootNASA(t)
	tq, err := c.Translate(xpath.MustParse("//dataset[date>=1990]//last"))
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	want, err := s.Execute(tq)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	wantBytes, _ := wire.MarshalAnswer(want)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	diff := make([]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ans, err := s.Execute(tq)
				if err != nil {
					errs[g] = err
					return
				}
				got, _ := wire.MarshalAnswer(ans)
				if !bytes.Equal(got, wantBytes) {
					diff[g] = true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range errs {
		if errs[g] != nil {
			t.Errorf("goroutine %d: %v", g, errs[g])
		}
		if diff[g] {
			t.Errorf("goroutine %d: answer differed", g)
		}
	}
}
