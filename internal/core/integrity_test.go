package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/authtree"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestIntegrityEndToEnd walks the whole verified lifecycle against
// the in-process backend: host, enable integrity, run verified
// queries and aggregates, update (advancing the root), and verify
// again — the owner's commitment stays in lockstep with the hosted
// state through every mutation.
func TestIntegrityEndToEnd(t *testing.T) {
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Host(doc, paperSCs, SchemeOpt, []byte("integrity-e2e"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	rootBefore := sys.Verifier().Root()

	// Every corpus query (including empty-answer ones) verifies.
	for _, q := range queries {
		if _, _, _, err := sys.Query(q); err != nil {
			t.Fatalf("verified query %q: %v", q, err)
		}
	}

	// Verified single-block aggregate.
	min, tm, err := sys.AggregateMinMax("//insurance/policy", false)
	if err != nil {
		t.Fatalf("verified MIN: %v", err)
	}
	if min != "9983" {
		t.Errorf("MIN(policy) = %q, want 9983", min)
	}
	if tm.BlocksShipped != 1 {
		t.Errorf("verified aggregate shipped %d blocks, want 1", tm.BlocksShipped)
	}

	// An update must advance the commitment...
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("verified update: %v", err)
	}
	rootAfter := sys.Verifier().Root()
	if rootBefore == rootAfter {
		t.Fatal("update did not advance the Merkle root")
	}

	// ...and post-update queries verify against the NEW root.
	nodes, _, _, err := sys.Query("//patient[.//disease='cholera']/pname")
	if err != nil {
		t.Fatalf("post-update verified query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
		t.Errorf("post-update answer: %v", ResultStrings(nodes))
	}
	if _, _, err := sys.AggregateMinMax("//insurance/policy", false); err != nil {
		t.Fatalf("post-update verified aggregate: %v", err)
	}
}

// TestIntegrityEmptyAnswerVerifies: emptiness is a claim too. An
// honest empty answer carries a liveness anchor (the structure leaf)
// and must verify, not be waved through unproven.
func TestIntegrityEmptyAnswerVerifies(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, paperSCs, SchemeOpt, []byte("integrity-empty"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	nodes, _, _, err := sys.Query("//patient[.//disease='plague']/pname")
	if err != nil {
		t.Fatalf("verified empty query: %v", err)
	}
	if len(nodes) != 0 {
		t.Errorf("expected empty answer, got %v", ResultStrings(nodes))
	}
}

// TestIntegrityDisabledIdentical: without EnableIntegrity no proof
// is requested, no proof is attached, and answers are byte-identical
// to the pre-integrity wire format — the layer is pay-for-what-you-
// use.
func TestIntegrityDisabledIdentical(t *testing.T) {
	host := func(key string) *System {
		d, _ := xmltree.ParseString(hospitalXML)
		s, err := Host(d, paperSCs, SchemeOpt, []byte(key))
		if err != nil {
			t.Fatalf("Host: %v", err)
		}
		return s
	}
	plain := host("same-key")
	verified := host("same-key")
	if err := verified.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	for _, q := range queries {
		a, _, _, err := plain.Query(q)
		if err != nil {
			t.Fatalf("plain %q: %v", q, err)
		}
		b, _, _, err := verified.Query(q)
		if err != nil {
			t.Fatalf("verified %q: %v", q, err)
		}
		got, want := ResultStrings(b), ResultStrings(a)
		if len(got) != len(want) {
			t.Fatalf("query %q: verified answer differs: %v vs %v", q, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %q: verified answer differs at %d: %q vs %q", q, i, got[i], want[i])
			}
		}
	}
}

// TestIntegrityRejectsForeignVerifier: a verifier built over a
// different database must reject every answer — the check is against
// this owner's commitment, not any well-formed proof.
func TestIntegrityRejectsForeignVerifier(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, paperSCs, SchemeOpt, []byte("key-one"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	other, _ := xmltree.ParseString(hospitalXML)
	sysOther, err := Host(other, paperSCs, SchemeOpt, []byte("key-two"))
	if err != nil {
		t.Fatalf("Host other: %v", err)
	}
	if err := sysOther.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Point sys at the OTHER system's verifier state by swapping in a
	// ring built from it (no retired tail, so nothing of the original
	// commitment survives) — simulating a mismatched commitment.
	sys.mu.Lock()
	sys.ring = newVerifierRing(sysOther.ring.Current().Clone())
	sys.publishLocked()
	sys.mu.Unlock()
	_, _, _, err = sys.Query("//patient/pname")
	if !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("mismatched commitment accepted: err=%v", err)
	}
}

// TestTamperVerdictIgnoresConcurrentAdvance: the ring's verdict on an
// answer depends only on the roots it holds when the check starts. An
// answer that matches no current, staged or retained root is
// ErrTampered even when a commit that would accept it lands while the
// answer is being checked; a verdict that waited for such a commit
// would make "tampered" a matter of timing. Honest answers need no
// wait, because every commit stages its root before its frame is sent.
func TestTamperVerdictIgnoresConcurrentAdvance(t *testing.T) {
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Host(doc, paperSCs, SchemeOpt, []byte("verdict-timing"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	before := sys.ring.Current()
	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatal(err)
	}
	after := sys.ring.Current()

	// An answer of the post-update generation, checked by a ring that
	// holds only the pre-update root.
	q, err := sys.Client.Translate(xpath.MustParse("//patient[.//disease='cholera']/pname"))
	if err != nil {
		t.Fatal(err)
	}
	q.WantProof = true
	ans, _, err := sys.Server.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := after.VerifyAnswer(ans); err != nil {
		t.Fatalf("answer does not verify against its own root: %v", err)
	}
	ring := newVerifierRing(before)
	checks := 0
	err = ring.verifySince(0, func(v *wire.AuthVerifier) error {
		checks++
		if checks == 1 {
			ring.Advance(after) // a commit lands mid-check
		}
		return v.VerifyAnswer(ans)
	})
	if !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("answer matching no held root: err = %v, want ErrTampered", err)
	}
	if checks != 1 {
		t.Fatalf("the check ran %d times; a commit during it must not trigger a re-check", checks)
	}
	// The commit that landed is now current, and a fresh check holds.
	if err := ring.verifyAnswerSince(0, ans); err != nil {
		t.Fatalf("answer rejected after its root became current: %v", err)
	}
}
