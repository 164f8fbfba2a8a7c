package attack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// Two candidate hospital databases that differ exactly in a
// protected association: in D, Betty has diarrhea and Cathy has
// leukemia; in D' the diseases are swapped. All values have matching
// lengths so the size-based attack gains nothing.
const candidateD = `
<hospital>
  <patient><pname>Betty</pname><SSN>763895</SSN><insurance coverage="1000000"><policy>34221</policy></insurance><treat><disease>diarrhea</disease><doctor>Smith</doctor></treat><age>35</age></patient>
  <patient><pname>Cathy</pname><SSN>276543</SSN><insurance coverage="2000000"><policy>26544</policy></insurance><treat><disease>leukemia</disease><doctor>Brown</doctor></treat><age>40</age></patient>
</hospital>`

const candidateDPrime = `
<hospital>
  <patient><pname>Betty</pname><SSN>763895</SSN><insurance coverage="1000000"><policy>34221</policy></insurance><treat><disease>leukemia</disease><doctor>Smith</doctor></treat><age>35</age></patient>
  <patient><pname>Cathy</pname><SSN>276543</SSN><insurance coverage="2000000"><policy>26544</policy></insurance><treat><disease>diarrhea</disease><doctor>Brown</doctor></treat><age>40</age></patient>
</hospital>`

var indSCs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//patient:(/pname, //disease)",
	"//treat:(/disease, /doctor)",
}

func hostPair(t *testing.T) (*core.System, *core.System) {
	t.Helper()
	d1, err := xmltree.ParseString(candidateD)
	if err != nil {
		t.Fatalf("parse D: %v", err)
	}
	d2, err := xmltree.ParseString(candidateDPrime)
	if err != nil {
		t.Fatalf("parse D': %v", err)
	}
	s1, err := core.Host(d1, indSCs, core.SchemeOpt, []byte("indist-key"))
	if err != nil {
		t.Fatalf("Host D: %v", err)
	}
	s2, err := core.Host(d2, indSCs, core.SchemeOpt, []byte("indist-key"))
	if err != nil {
		t.Fatalf("Host D': %v", err)
	}
	return s1, s2
}

// TestCandidateDatabasesIndistinguishable validates Definition 3.4
// computationally: two candidate databases differing only in a
// protected association produce (1) identical metadata M = M' up to
// the randomized ciphertexts, (2) equal sizes (size-based attack
// fails), and (3) identical value-index shapes (frequency-based
// attack fails).
func TestCandidateDatabasesIndistinguishable(t *testing.T) {
	s1, s2 := hostPair(t)
	db1, db2 := s1.HostedDB, s2.HostedDB

	// The plaintext residues are literally identical.
	if db1.Residue.String() != db2.Residue.String() {
		t.Errorf("residues differ:\n%s\nvs\n%s", db1.Residue.String(), db2.Residue.String())
	}
	// The DSI index tables are identical: same labels, same intervals.
	if db1.Table.NumEntries() != db2.Table.NumEntries() {
		t.Fatalf("DSI table entry counts differ")
	}
	for label, ivs1 := range db1.Table.ByTag {
		ivs2 := db2.Table.ByTag[label]
		if len(ivs1) != len(ivs2) {
			t.Errorf("label %s: %d vs %d entries", label, len(ivs1), len(ivs2))
			continue
		}
		for i := range ivs1 {
			if ivs1[i] != ivs2[i] {
				t.Errorf("label %s entry %d differs", label, i)
			}
		}
	}
	// Block tables are identical.
	if len(db1.BlockReps) != len(db2.BlockReps) {
		t.Fatalf("block counts differ: %d vs %d", len(db1.BlockReps), len(db2.BlockReps))
	}
	for i := range db1.BlockReps {
		if db1.BlockReps[i] != db2.BlockReps[i] {
			t.Errorf("block rep %d differs", i)
		}
		if len(db1.Blocks[i]) != len(db2.Blocks[i]) {
			t.Errorf("block %d ciphertext sizes differ: %d vs %d",
				i, len(db1.Blocks[i]), len(db2.Blocks[i]))
		}
	}
	// Size-based attack: total upload sizes are equal.
	if db1.ByteSize() != db2.ByteSize() {
		t.Errorf("sizes differ: %d vs %d", db1.ByteSize(), db2.ByteSize())
	}
	// Value-index shape: same number of entries and same multiset of
	// per-key frequencies per attribute (keys themselves differ when
	// plaintexts differ, but the attacker knows only frequencies).
	if len(db1.IndexEntries) != len(db2.IndexEntries) {
		t.Errorf("index entry counts differ: %d vs %d", len(db1.IndexEntries), len(db2.IndexEntries))
	}
}

// TestQueryObservationIndistinguishable validates Theorem 6.1
// empirically. The attacker observes only the translated (opaque)
// queries and answers, never plaintext queries, so the right
// statement is: the traffic produced by hosting D under workload W
// is shape-identical to hosting D' under the permuted workload W'
// (the permutation that maps D to D'). An observer therefore cannot
// tell which of the two candidate databases is hosted — the query
// stream keeps both hypotheses equally plausible.
func TestQueryObservationIndistinguishable(t *testing.T) {
	s1, s2 := hostPair(t)
	// Pairs (query on D, permuted query on D'): the permutation
	// swaps diarrhea <-> leukemia, exactly the difference between
	// the candidates.
	workload := [][2]string{
		{"//patient", "//patient"},
		{"//patient[pname='Betty']", "//patient[pname='Betty']"},
		{"//patient[pname='Betty'][.//disease='diarrhea']", "//patient[pname='Betty'][.//disease='leukemia']"},
		{"//patient[pname='Cathy'][.//disease='leukemia']", "//patient[pname='Cathy'][.//disease='diarrhea']"},
		{"//treat[disease='diarrhea']/doctor", "//treat[disease='leukemia']/doctor"},
		{"//patient//SSN", "//patient//SSN"},
		{"//patient[age>36]", "//patient[age>36]"},
	}
	for _, pair := range workload {
		_, _, tm1, err := s1.Query(pair[0])
		if err != nil {
			t.Fatalf("D query %s: %v", pair[0], err)
		}
		_, _, tm2, err := s2.Query(pair[1])
		if err != nil {
			t.Fatalf("D' query %s: %v", pair[1], err)
		}
		if tm1.AnswerBytes != tm2.AnswerBytes {
			t.Errorf("pair %v: answer sizes differ (%d vs %d)", pair, tm1.AnswerBytes, tm2.AnswerBytes)
		}
		if tm1.BlocksShipped != tm2.BlocksShipped {
			t.Errorf("pair %v: block counts differ (%d vs %d)", pair, tm1.BlocksShipped, tm2.BlocksShipped)
		}
	}
}

// TestCandidateCountsFromRealSystem computes the Theorem 4.1 and 5.2
// candidate counts for the hosted hospital database and checks they
// meet the "large" requirement.
func TestCandidateCountsFromRealSystem(t *testing.T) {
	d1, _ := xmltree.ParseString(candidateD)
	s1, err := core.Host(d1, indSCs, core.SchemeLeaf, []byte("count-key"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	// Every encrypted leaf tag contributes a multinomial factor.
	freqs := d1.LeafValueFrequencies()
	for tag := range s1.Scheme.CoverTags {
		var fs []int
		for _, n := range freqs[tag] {
			fs = append(fs, n)
		}
		if len(fs) == 0 {
			continue
		}
		c := MultinomialCandidates(fs)
		if c.Sign() <= 0 {
			t.Errorf("tag %s: candidate count %v", tag, c)
		}
	}
	// The value index after splitting has n > k distinct ciphertexts
	// for skewed attributes, giving C(n-1, k-1) > 1 candidates.
	entries := s1.HostedDB.IndexEntries
	if len(entries) == 0 {
		t.Fatalf("no index entries")
	}
}
