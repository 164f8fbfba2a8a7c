package attack

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/authtree"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

const tamperHospitalXML = `
<hospital>
  <patient>
    <pname>Betty</pname><SSN>763895</SSN>
    <insurance coverage="1000000"><policy>34221</policy></insurance>
    <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
    <age>35</age>
  </patient>
  <patient>
    <pname>Matt</pname><SSN>276543</SSN>
    <insurance coverage="10000"><policy>26544</policy></insurance>
    <treat><disease>leukemia</disease><doctor>Walker</doctor></treat>
    <age>40</age>
  </patient>
</hospital>`

var tamperSCs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//patient:(/pname, //disease)",
	"//treat:(/disease, /doctor)",
}

// tamperedSystem hosts the hospital document with integrity enabled
// and a TamperBackend wrapped around the real in-process server.
func tamperedSystem(t *testing.T) (*core.System, *TamperBackend) {
	t.Helper()
	doc, err := xmltree.ParseString(tamperHospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, tamperSCs, core.SchemeOpt, []byte("tamper-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	tb := &TamperBackend{Inner: sys.Server}
	sys.UseBackend(tb)
	return sys, tb
}

const tamperQuery = "//patient[.//disease='leukemia']/pname"

// mustQueryHonest asserts the system answers correctly while the
// backend forwards honestly — every test starts here so a failure
// under tampering provably comes from the tampering.
func mustQueryHonest(t *testing.T, sys *core.System) {
	t.Helper()
	nodes, _, _, err := sys.Query(tamperQuery)
	if err != nil {
		t.Fatalf("honest query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
		t.Fatalf("honest query wrong answer: %v", core.ResultStrings(nodes))
	}
}

// mustDetectTampering asserts the query fails with ErrTampered —
// not a wrong answer, not a generic error.
func mustDetectTampering(t *testing.T, sys *core.System, scenario string) {
	t.Helper()
	_, _, _, err := sys.Query(tamperQuery)
	if err == nil {
		t.Fatalf("%s: tampered answer accepted", scenario)
	}
	if !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("%s: error %v is not ErrTampered", scenario, err)
	}
}

// TestTamperDroppedBlock: the server omits one ciphertext block from
// the answer (and its ID, so the counts stay consistent). The proof
// still authenticates the fragments, which reference the missing
// block — omission must be detected, not silently shrink the answer.
func TestTamperDroppedBlock(t *testing.T) {
	sys, tb := tamperedSystem(t)
	mustQueryHonest(t, sys)

	dropped := false
	tb.SetMutation(func(a *wire.Answer) {
		if len(a.Blocks) == 0 {
			return
		}
		a.Blocks = a.Blocks[:len(a.Blocks)-1]
		a.BlockIDs = a.BlockIDs[:len(a.BlockIDs)-1]
		dropped = true
	})
	mustDetectTampering(t, sys, "dropped block")
	if !dropped {
		t.Fatal("query shipped no blocks; scenario exercised nothing")
	}

	tb.StopTampering()
	mustQueryHonest(t, sys)
}

// TestTamperSwappedCiphertext: the server swaps the ciphertexts of
// two sibling blocks while keeping their IDs. Each ciphertext is
// individually authentic, just bound to the wrong identity — exactly
// the substitution a per-block MAC without position binding misses.
func TestTamperSwappedCiphertext(t *testing.T) {
	sys, tb := tamperedSystem(t)
	mustQueryHonest(t, sys)

	swapped := false
	tb.SetMutation(func(a *wire.Answer) {
		if len(a.Blocks) < 2 {
			return
		}
		a.Blocks[0], a.Blocks[1] = a.Blocks[1], a.Blocks[0]
		swapped = true
	})
	_, _, _, err := sys.Query("//patient/pname")
	if err == nil {
		t.Fatal("swapped ciphertexts accepted")
	}
	if !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("swap: error %v is not ErrTampered", err)
	}
	if !swapped {
		t.Fatal("query shipped fewer than two blocks; scenario exercised nothing")
	}
}

// TestTamperProofStripped: the server returns the honest answer but
// without its verification object. A client that fell back to
// accepting proofless answers would be trivially bypassed.
func TestTamperProofStripped(t *testing.T) {
	sys, tb := tamperedSystem(t)
	mustQueryHonest(t, sys)
	tb.SetMutation(func(a *wire.Answer) { a.Proof = nil })
	mustDetectTampering(t, sys, "stripped proof")
}

// TestTamperForgedAggregate: a server that proves its lies — every
// leaf of its forged probe answer is committed and the multiproof
// verifies — still cannot forge a MIN: the probed bands it must ship
// show the extreme, so a false "no values" and a committed block that
// does not hold the minimum both fail as ErrTampered.
func TestTamperForgedAggregate(t *testing.T) {
	sys, tb := tamperedSystem(t)
	const agg = "//insurance/policy"
	if got, _, err := sys.AggregateMinMax(agg, false); err != nil || got != "26544" {
		t.Fatalf("honest MIN = %q, %v", got, err)
	}
	st, err := wire.BuildAuthState(sys.HostedDB)
	if err != nil {
		t.Fatal(err)
	}
	// forge replaces the probe answer's block with pick(honest block)
	// (none for -1) and proves the result over the same bands.
	forge := func(pick func(int) int) func(*wire.Answer) {
		return func(a *wire.Answer) {
			p, err := wire.UnmarshalAnswerProof(a.Proof)
			if err != nil || len(p.Bands) == 0 || len(a.BlockIDs) != 1 {
				t.Errorf("not a probe answer: %v, %d bands, blocks %v", err, len(p.Bands), a.BlockIDs)
				return
			}
			id := pick(a.BlockIDs[0])
			a.BlockIDs, a.Blocks = nil, nil
			if id >= 0 {
				a.BlockIDs, a.Blocks = []int{id}, [][]byte{sys.HostedDB.Blocks[id]}
			}
			lo, hi := uint64(p.Bands[0].Band)<<56, uint64(p.Bands[len(p.Bands)-1].Band)<<56|(1<<56-1)
			if a.Proof, err = st.ProveProbe(a, &wire.Probe{Lo: lo, Hi: hi}); err != nil {
				t.Errorf("prove forgery: %v", err)
			}
		}
	}
	for name, pick := range map[string]func(int) int{
		"false no-values": func(int) int { return -1 },
		"wrong block":     func(id int) int { return (id + 1) % len(sys.HostedDB.Blocks) },
	} {
		tb.SetMutation(forge(pick))
		if v, _, err := sys.AggregateMinMax(agg, false); !errors.Is(err, authtree.ErrTampered) {
			t.Errorf("%s: MIN = %q, err %v; want ErrTampered", name, v, err)
		}
	}
	tb.StopTampering()
	if got, _, err := sys.AggregateMinMax(agg, false); err != nil || got != "26544" {
		t.Fatalf("honest MIN after tampering = %q, %v", got, err)
	}
}

// TestTamperRollbackReplay: the freshness attack. The server records
// a valid answer (with its then-valid proof), lets the owner apply an
// update — advancing the owner's root — and then replays the
// pre-update answer. The stale proof verifies against the OLD root
// only; the client's advanced commitment must reject it.
func TestTamperRollbackReplay(t *testing.T) {
	sys, tb := tamperedSystem(t)
	tb.RecordNext()
	mustQueryHonest(t, sys)

	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}
	// Honest post-update state answers the new query.
	nodes, _, _, err := sys.Query("//patient[.//disease='cholera']/pname")
	if err != nil {
		t.Fatalf("post-update query: %v", err)
	}
	if len(nodes) != 1 {
		t.Fatalf("update not visible: %v", core.ResultStrings(nodes))
	}

	if !tb.ReplayRecorded() {
		t.Fatal("no answer recorded for replay")
	}
	mustDetectTampering(t, sys, "rollback replay")
}

// TestTamperConcurrentDetection runs tampered queries from many
// goroutines at once: every one must fail with ErrTampered, with no
// data races between the verifier reads and the mutating backend
// (run with -race).
func TestTamperConcurrentDetection(t *testing.T) {
	sys, tb := tamperedSystem(t)
	mustQueryHonest(t, sys)
	tb.SetMutation(func(a *wire.Answer) {
		// Replace (never mutate in place): with an in-process backend
		// the answer's slices alias the server's stored blocks.
		for i, b := range a.Blocks {
			if len(b) == 0 {
				continue
			}
			flipped := append([]byte(nil), b...)
			flipped[0] ^= 0xFF
			a.Blocks[i] = flipped
		}
	})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, errs[i] = sys.Query(tamperQuery)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, authtree.ErrTampered) {
			t.Errorf("goroutine %d: error %v is not ErrTampered", i, err)
		}
	}
}
