package wire

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func sampleDB(t *testing.T) *HostedDB {
	t.Helper()
	res, err := xmltree.ParseString(`<hospital><patient><EncBlock id="0"/><SSN>763895</SSN></patient></hospital>`)
	if err != nil {
		t.Fatal(err)
	}
	ivs := map[*xmltree.Node]dsi.Interval{}
	i := 0.0
	for _, n := range res.Nodes() {
		if n.Kind == xmltree.Text {
			continue
		}
		ivs[n] = dsi.Interval{Lo: 0.01 * i, Hi: 0.01*i + 0.005}
		i++
	}
	return &HostedDB{
		Residue:          res,
		ResidueIntervals: ivs,
		Table: &dsi.Table{ByTag: map[string][]dsi.Interval{
			"hospital": {{Lo: 0, Hi: 1}},
			"patient":  {{Lo: 0.1, Hi: 0.4}},
			"TXXENC":   {{Lo: 0.12, Hi: 0.2}, {Lo: 0.5, Hi: 0.6}},
		}},
		BlockReps:    []dsi.Interval{{Lo: 0.12, Hi: 0.2}},
		Blocks:       [][]byte{{1, 2, 3, 4, 5}},
		IndexEntries: []btree.Entry{{Key: 99, BlockID: 0}, {Key: 77, BlockID: 0}},
	}
}

func TestDBRoundTrip(t *testing.T) {
	db := sampleDB(t)
	data, err := MarshalDB(db)
	if err != nil {
		t.Fatalf("MarshalDB: %v", err)
	}
	got, err := UnmarshalDB(data)
	if err != nil {
		t.Fatalf("UnmarshalDB: %v", err)
	}
	if got.Residue.String() != db.Residue.String() {
		t.Errorf("residue mismatch")
	}
	if len(got.ResidueIntervals) != len(db.ResidueIntervals) {
		t.Errorf("interval count %d vs %d", len(got.ResidueIntervals), len(db.ResidueIntervals))
	}
	// Intervals must attach to the structurally identical nodes.
	for n, iv := range db.ResidueIntervals {
		gn := got.Residue.NodeByID(n.ID)
		if gn == nil || got.ResidueIntervals[gn] != iv {
			t.Errorf("interval for node %d lost", n.ID)
		}
	}
	for label, ivs := range db.Table.ByTag {
		gi := got.Table.ByTag[label]
		if len(gi) != len(ivs) {
			t.Fatalf("label %s: %d vs %d intervals", label, len(gi), len(ivs))
		}
		for i := range ivs {
			if gi[i] != ivs[i] {
				t.Errorf("label %s interval %d mismatch", label, i)
			}
		}
	}
	if len(got.BlockReps) != 1 || got.BlockReps[0] != db.BlockReps[0] {
		t.Errorf("block reps mismatch")
	}
	if !bytes.Equal(got.Blocks[0], db.Blocks[0]) {
		t.Errorf("block bytes mismatch")
	}
	if len(got.IndexEntries) != 2 || got.IndexEntries[0] != db.IndexEntries[0] {
		t.Errorf("index entries mismatch")
	}
}

func TestDBUnmarshalErrors(t *testing.T) {
	db := sampleDB(t)
	data, _ := MarshalDB(db)
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXXX rest"),
		"truncated": data[:len(data)/2],
		"trailing":  append(append([]byte{}, data...), 0xFF),
		"corrupted": append([]byte("SXDB1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
	}
	for name, d := range cases {
		if _, err := UnmarshalDB(d); err == nil {
			t.Errorf("%s: UnmarshalDB accepted bad input", name)
		}
	}
}

func sampleQuery() *Query {
	inner := &QStep{Axis: xpath.AxisChild, Labels: []string{"TENC1"}}
	pv := &PredValue{
		Path:   &QStep{Axis: xpath.AxisAttribute, Desc: true, Labels: []string{"@cov"}},
		Plain:  true,
		Op:     xpath.OpGe,
		Lit:    "10000",
		Ranges: []opess.Range{{Lo: 5, Hi: 10}, {Lo: 20, Hi: 30}},
	}
	first := &QStep{
		Axis:   xpath.AxisChild,
		Desc:   true,
		Labels: []string{"patient", "TENC0"},
		Preds: []QPred{
			&PredAnd{L: pv, R: &PredNot{E: &PredExists{Path: inner}}},
			&PredOr{L: &PredPos{N: 2}, R: &PredExists{Path: &QStep{Axis: xpath.AxisSelf}}},
		},
		Next: &QStep{Axis: xpath.AxisFollowingSibling, Labels: []string{"SSN"}},
	}
	return &Query{First: first}
}

func TestQueryRoundTrip(t *testing.T) {
	q := sampleQuery()
	data, err := MarshalQuery(q)
	if err != nil {
		t.Fatalf("MarshalQuery: %v", err)
	}
	got, err := UnmarshalQuery(data)
	if err != nil {
		t.Fatalf("UnmarshalQuery: %v", err)
	}
	// Re-marshal must be byte-identical (canonical encoding).
	data2, err := MarshalQuery(got)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("round trip not canonical")
	}
	// Spot-check structure.
	steps := got.Steps()
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Labels[1] != "TENC0" || !steps[0].Desc {
		t.Errorf("first step mangled: %+v", steps[0])
	}
	and, ok := steps[0].Preds[0].(*PredAnd)
	if !ok {
		t.Fatalf("pred 0 is %T", steps[0].Preds[0])
	}
	pv, ok := and.L.(*PredValue)
	if !ok || pv.Lit != "10000" || len(pv.Ranges) != 2 || pv.Ranges[1].Hi != 30 {
		t.Errorf("PredValue mangled: %+v", pv)
	}
	if steps[1].Axis != xpath.AxisFollowingSibling {
		t.Errorf("second step axis = %v", steps[1].Axis)
	}
}

func TestQueryUnmarshalErrors(t *testing.T) {
	data, _ := MarshalQuery(sampleQuery())
	for name, d := range map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE"),
		"truncated": data[:len(data)-3],
		"trailing":  append(append([]byte{}, data...), 1),
	} {
		if _, err := UnmarshalQuery(d); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestAnswerRoundTrip(t *testing.T) {
	a := &Answer{
		Fragments: [][]byte{[]byte("<patient/>"), []byte("<x>1</x>")},
		BlockIDs:  []int{3, 7},
		Blocks:    [][]byte{{9, 9, 9}, {1}},
	}
	data, err := MarshalAnswer(a)
	if err != nil {
		t.Fatalf("MarshalAnswer: %v", err)
	}
	got, err := UnmarshalAnswer(data)
	if err != nil {
		t.Fatalf("UnmarshalAnswer: %v", err)
	}
	if len(got.Fragments) != 2 || string(got.Fragments[1]) != "<x>1</x>" {
		t.Errorf("fragments mangled")
	}
	if len(got.BlockIDs) != 2 || got.BlockIDs[1] != 7 || !bytes.Equal(got.Blocks[0], []byte{9, 9, 9}) {
		t.Errorf("blocks mangled")
	}
	// Empty answer round trip.
	data, _ = MarshalAnswer(&Answer{})
	empty, err := UnmarshalAnswer(data)
	if err != nil || len(empty.Fragments) != 0 || len(empty.Blocks) != 0 {
		t.Errorf("empty answer round trip failed: %v", err)
	}
}

// Property: random-ish answers survive the round trip.
func TestQuickAnswerRoundTrip(t *testing.T) {
	f := func(frags [][]byte, blocks [][]byte) bool {
		a := &Answer{Fragments: frags}
		for i, b := range blocks {
			a.BlockIDs = append(a.BlockIDs, i*3)
			a.Blocks = append(a.Blocks, b)
		}
		data, err := MarshalAnswer(a)
		if err != nil {
			return false
		}
		got, err := UnmarshalAnswer(data)
		if err != nil {
			return false
		}
		if len(got.Fragments) != len(a.Fragments) || len(got.Blocks) != len(a.Blocks) {
			return false
		}
		for i := range a.Fragments {
			if !bytes.Equal(got.Fragments[i], a.Fragments[i]) {
				return false
			}
		}
		for i := range a.Blocks {
			if !bytes.Equal(got.Blocks[i], a.Blocks[i]) || got.BlockIDs[i] != a.BlockIDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Tiny frames whose one count claims up to 1<<22 elements (1<<20
// siblings, the proof's own cap): a decoder must refuse each before it
// allocates for the count. The residue is "<a/>".
var (
	forgedDBCounts = map[string]string{
		"residue interval": "SXDB1\x04<a/>\x80\x80\x80\x02",
		"label":            "SXDB1\x04<a/>\x00\x80\x80\x80\x02",
		"table interval":   "SXDB1\x04<a/>\x00\x01\x01x\x80\x80\x80\x02",
		"block rep":        "SXDB1\x04<a/>\x00\x00\x80\x80\x80\x02",
		"block":            "SXDB1\x04<a/>\x00\x00\x00\x80\x80\x80\x02",
		"index entry":      "SXDB1\x04<a/>\x00\x00\x00\x00\x80\x80\x80\x02",
	}
	forgedProofCounts = map[string]string{
		"sibling digest": "SXP1\x00\x80\x80\x40",
		"proof band":     "SXP1\x00\x00\x80\x80\x80\x02",
		"band entry":     "SXP1\x00\x00\x01\x00\x80\x80\x80\x02",
	}
)

// TestForgedCountsRefusedBeforeAllocation: a count is checked against
// the bytes left before anything is allocated for it, so a body of a
// few dozen bytes cannot make the server (an upload) or the owner (a
// proof, once per ring verifier tried) allocate gigabytes.
func TestForgedCountsRefusedBeforeAllocation(t *testing.T) {
	type forged struct {
		name, body string
		decode     func([]byte) error
	}
	var cases []forged
	for name, body := range forgedDBCounts {
		cases = append(cases, forged{name, body, func(b []byte) error { _, err := UnmarshalDB(b); return err }})
	}
	for name, body := range forgedProofCounts {
		cases = append(cases, forged{name, body, func(b []byte) error { _, err := UnmarshalAnswerProof(b); return err }})
	}
	for _, c := range cases {
		if len(c.body) >= 32 {
			t.Fatalf("%s: forged body is %d bytes", c.name, len(c.body))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode([]byte(c.body))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.name+" count") {
			t.Errorf("%s: forged count: err = %v, want its count refused", c.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", c.name, d)
		}
	}
}
