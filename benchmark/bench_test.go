package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n         int
		q         float64
		want      float64
		supported bool
	}{
		{19, 0.50, 10, false}, // 9 beyond
		{20, 0.50, 10, true},  // 10 beyond
		{199, 0.95, 190, false},
		{200, 0.95, 190, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1, 0.95, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(ramp(c.n), c.q)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %.2f) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.supported)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports no percentile")
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 1, Start: 12, End: 20},  // a grandchild covers only its parent
	}
	want := []int64{100 - (20 + 20 + 10), 20 - 8, 30, 30, 8}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	total, self := meanByName([]span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 10_000},
		{ID: 1, Parent: 0, Name: "server.exec", Start: 1_000, End: 8_000},
	})
	if total["query"] != 10 || self["query"] != 3 || total["server.exec"] != 7 {
		t.Errorf("meanByName = %v, %v", total, self)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
}

// someFacts is a small synthetic catalogue: enough distinct values for
// every generator to have something to shuffle.
func someFacts() []datasetFacts {
	var ds []datasetFacts
	for i := 0; i < 60; i++ {
		d := datasetFacts{
			Altname:   fmt.Sprintf("ADC-%04d", i),
			Date:      fmt.Sprint(1965 + i%7),
			Publisher: []string{"NASA", "ESA", "CDS"}[i%3],
			Age:       fmt.Sprint(1 + i%5),
			Journal:   []string{"ApJ", "AJ"}[i%2],
			Keywords:  []string{[]string{"stars", "radio", "xray"}[i%3]},
			Lasts:     []string{[]string{"Smith", "Wang", "Kim", "Lee"}[i%4]},
			Initials:  []string{[]string{"A", "B", "C"}[i%3]},
		}
		if i%10 == 0 { // a second author: not a single-leaf edit target
			d.Lasts = append(d.Lasts, "Chen")
			d.Initials = append(d.Initials, "D")
		}
		ds = append(ds, d)
	}
	return ds
}

func sortedCopyStrings(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestInterleaveKeepsTheMixInEveryStretch: any eighth of an
// interleaved sequence holds each family in proportion, within one.
func TestInterleaveKeepsTheMixInEveryStretch(t *testing.T) {
	fams := make([][]string, 3)
	for f, n := range []int{400, 100, 50} {
		for i := 0; i < n; i++ {
			fams[f] = append(fams[f], fmt.Sprintf("f%d-%d", f, i))
		}
	}
	seq := interleave(rand.New(rand.NewSource(1)), fams)
	if len(seq) != 550 {
		t.Fatalf("interleave kept %d of 550 elements", len(seq))
	}
	for part, stretch := range deal(seq, 8) {
		count := map[byte]float64{}
		for _, q := range stretch {
			count[q[1]]++
		}
		for f, n := range []float64{400, 100, 50} {
			if got, want := count[byte('0'+f)], n/8; got < want-1.5 || got > want+1.5 {
				t.Errorf("stretch %d holds %v of family %d, want about %v", part, got, f, want)
			}
		}
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	ds := someFacts()
	for _, name := range workloadNames {
		a, err := buildWorkload(name, ds, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, ds, 7)
		c, _ := buildWorkload(name, ds, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different workloads", name)
		}
		if reflect.DeepEqual(a.Readers, c.Readers) && reflect.DeepEqual(a.Writer, c.Writer) {
			t.Errorf("%s: different seeds gave the same op sequences", name)
		}
		if !reflect.DeepEqual(sortedCopyStrings(a.Distinct), sortedCopyStrings(c.Distinct)) {
			t.Errorf("%s: the set of distinct queries must not depend on the seed", name)
		}
		if (len(a.Writer) > 0) == (len(a.Probe) > 0) {
			t.Errorf("%s: want either a writer or a closing probe", name)
		}
	}
	if _, err := buildWorkload("hot", ds, 1); err == nil {
		t.Error("an unknown workload name must be refused")
	}
}

func TestEditsStayInDomainAndAlwaysChangeTheLeaf(t *testing.T) {
	ds := someFacts()
	w, _ := buildWorkload("mixed", ds, 3)
	targets, lasts, initials := editTargets(ds)
	current := map[string]string{}
	for _, tg := range targets {
		current[tg.Query] = tg.Value
	}
	domain := map[string]bool{}
	for _, v := range append(lasts, initials...) {
		domain[v] = true
	}
	for i, o := range w.Writer[:500] {
		old, known := current[o.Query]
		if !known {
			t.Fatalf("edit %d targets %s, which is not a single-leaf target", i, o.Query)
		}
		if !domain[o.Value] {
			t.Fatalf("edit %d writes %q, outside the existing domain", i, o.Value)
		}
		if o.Value == old {
			t.Fatalf("edit %d rewrites %s with the value it already has", i, o.Query)
		}
		current[o.Query] = o.Value
	}
}

// TestManifestNamesWhatTheProgramReports keeps BENCHMARK.json and the
// program's metric tables in step.
func TestManifestNamesWhatTheProgramReports(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []spec                  `json:"end_to_end"`
		PerLayer  []spec                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("manifest workloads %v, program %v", names, workloadNames)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("manifest end_to_end %v\nprogram %v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("manifest per_layer %v\nprogram %v", m.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload end to end on a small document with
// every check on: point and bulk traced (they carry the share guards),
// twig and mixed untraced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and queries four durable services")
	}
	start, out := time.Now(), t.TempDir()
	for _, name := range workloadNames {
		cfg := config{Workload: name, Seed: 1, Trace: name == "point" || name == "bulk", OutDir: out}.smoke()
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", name, res.Correct, res.Failed, res.Attempted)
		}
		want := endToEnd
		if cfg.Trace {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics reported, want %d", name, len(res.Metrics), len(want))
		}
		for _, s := range want {
			m, ok := res.Metrics[s.Name]
			if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", name, s.Name, m, ok)
			}
			if !cfg.Trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, s.Name, m.Value)
			}
		}
	}
	t.Logf("four workloads in %.1fs", time.Since(start).Seconds())
}
