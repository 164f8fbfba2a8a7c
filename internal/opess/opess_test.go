package opess

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cryptoprim"
	"repro/internal/xpath"
)

func keys() *cryptoprim.KeySet { return cryptoprim.MustKeySet("opess-test") }

// fig6Freq is the skewed input distribution of Figure 6(a): six
// distinct values with occurrence counts between 7 and 34.
var fig6Freq = map[string]int{
	"1001": 21, "932": 8, "23": 26, "77": 7, "90": 34, "12": 13,
}

func TestRepresentable(t *testing.T) {
	cases := []struct {
		n, m int
		want bool
	}{
		{7, 5, false}, // gap: 4,5,6 then 8..
		{8, 5, true},
		{4, 5, true},
		{6, 5, true},
		{3, 3, true},
		{2, 3, true},
		{5, 3, true},
		{34, 7, true}, // paper: 34 = 1*6 + 4*7
		{1, 3, false},
	}
	for _, c := range cases {
		if got := representable(c.n, c.m); got != c.want {
			t.Errorf("representable(%d, %d) = %v, want %v", c.n, c.m, got, c.want)
		}
	}
}

func TestDecompose(t *testing.T) {
	for _, c := range []struct{ n, m int }{
		{34, 7}, {8, 5}, {2, 3}, {100, 7}, {23, 3},
	} {
		cs, err := decompose(c.n, c.m)
		if err != nil {
			t.Fatalf("decompose(%d, %d): %v", c.n, c.m, err)
		}
		sum := 0
		for _, s := range cs {
			if s < c.m-1 || s > c.m+1 {
				t.Errorf("decompose(%d, %d): chunk %d outside [m-1, m+1]", c.n, c.m, s)
			}
			sum += s
		}
		if sum != c.n {
			t.Errorf("decompose(%d, %d) sums to %d", c.n, c.m, sum)
		}
	}
	if _, err := decompose(7, 5); err == nil {
		t.Errorf("decompose(7,5) should fail")
	}
}

func TestChooseM(t *testing.T) {
	// All counts large and divisible: max m bounded by min count + 1.
	m := chooseM(map[string]int{"a": 6, "b": 12})
	if m < 3 || m > 7 {
		t.Errorf("chooseM = %d out of bounds", m)
	}
	for _, n := range []int{6, 12} {
		if !representable(n, m) {
			t.Errorf("chosen m=%d cannot represent %d", m, n)
		}
	}
	// Only singletons: default 3.
	if m := chooseM(map[string]int{"a": 1}); m != 3 {
		t.Errorf("singleton-only m = %d, want 3", m)
	}
	// chooseM must be maximal: for counts {6,7,8} m=7 works (6=6,
	// 7=7, 8=8) and no larger m does (m-1 <= 6 forces m <= 7).
	if m := chooseM(map[string]int{"a": 6, "b": 7, "c": 8}); m != 7 {
		t.Errorf("chooseM({6,7,8}) = %d, want 7", m)
	}
}

func TestBuildFig6Flattens(t *testing.T) {
	a, err := Build("val", fig6Freq, keys())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Figure 6(b): every ciphertext frequency is m-1, m, or m+1.
	for v, n := range fig6Freq {
		cs := a.ChunksOf(v)
		sum := 0
		for _, c := range cs {
			if c < a.M-1 || c > a.M+1 {
				t.Errorf("value %s chunk %d outside [%d, %d]", v, c, a.M-1, a.M+1)
			}
			sum += c
		}
		if sum != n {
			t.Errorf("value %s chunks sum to %d, want %d", v, sum, n)
		}
	}
}

// TestFig6Reproduction pins Figure 6(b) exactly: M = 7, 16 ciphertext
// values, and the paper's worked example 34 = 1×6 + 4×7.
func TestFig6Reproduction(t *testing.T) {
	a, err := Build("val", fig6Freq, keys())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if a.M != 7 {
		t.Errorf("M = %d, want 7", a.M)
	}
	chunks := 0
	for _, v := range a.Values() {
		chunks += len(a.ChunksOf(v))
	}
	if chunks != 16 {
		t.Errorf("%d ciphertext values, want 16", chunks)
	}
	if got := a.ChunksOf("90"); !reflect.DeepEqual(got, []int{6, 7, 7, 7, 7}) {
		t.Errorf("34 splits into %v, want [6 7 7 7 7]", got)
	}
}

func TestCipherValuesOrderedAndDisjoint(t *testing.T) {
	a, err := Build("val", fig6Freq, keys())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Property (*): all ciphertexts of v_i are strictly below all
	// ciphertexts of v_{i+1}.
	var prevMax uint64
	for i, v := range a.Values() {
		cs, err := a.CipherValues(v)
		if err != nil {
			t.Fatalf("CipherValues(%s): %v", v, err)
		}
		for j := 1; j < len(cs); j++ {
			if cs[j-1] >= cs[j] {
				t.Errorf("value %s: chunk ciphertexts not increasing", v)
			}
		}
		if i > 0 && cs[0] <= prevMax {
			t.Errorf("straddle: %s ciphertext %d <= previous max %d", v, cs[0], prevMax)
		}
		prevMax = cs[len(cs)-1]
	}
}

func TestCipherValuesDeterministic(t *testing.T) {
	a1, _ := Build("val", fig6Freq, keys())
	a2, _ := Build("val", fig6Freq, keys())
	for _, v := range a1.Values() {
		c1, _ := a1.CipherValues(v)
		c2, _ := a2.CipherValues(v)
		if len(c1) != len(c2) {
			t.Fatalf("nondeterministic chunk count for %s", v)
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("nondeterministic cipher for %s", v)
			}
		}
	}
	// Different key, different ciphertexts.
	a3, _ := Build("val", fig6Freq, cryptoprim.MustKeySet("other"))
	c1, _ := a1.CipherValues("23")
	c3, _ := a3.CipherValues("23")
	if c1[0] == c3[0] {
		t.Errorf("ciphertext independent of key")
	}
}

func TestIndexEntries(t *testing.T) {
	a, err := Build("val", map[string]int{"10": 5, "20": 2}, keys())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	blocks := []int{100, 101, 102, 103, 104}
	es, err := a.IndexEntries("10", blocks)
	if err != nil {
		t.Fatalf("IndexEntries: %v", err)
	}
	s := a.ScaleOf("10")
	if s < 1 || s > 10 {
		t.Fatalf("scale = %d", s)
	}
	if len(es) != 5*s {
		t.Errorf("entries = %d, want occurrences 5 x scale %d", len(es), s)
	}
	// Every block appears exactly scale times.
	cnt := map[int]int{}
	for _, e := range es {
		cnt[e.BlockID]++
	}
	for _, b := range blocks {
		if cnt[b] != s {
			t.Errorf("block %d appears %d times, want %d", b, cnt[b], s)
		}
	}
	// Occurrence count mismatch is rejected.
	if _, err := a.IndexEntries("10", []int{1, 2}); err == nil {
		t.Errorf("wrong occurrence count accepted")
	}
	if _, err := a.IndexEntries("99", blocks); err == nil {
		t.Errorf("unknown value accepted")
	}
}

func TestSingletonSplitIntoM(t *testing.T) {
	a, err := Build("val", map[string]int{"5": 1, "9": 4}, keys())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cs, _ := a.CipherValues("5")
	if len(cs) != a.M {
		t.Errorf("singleton splits into %d ciphertexts, want M=%d", len(cs), a.M)
	}
	es, err := a.IndexEntries("5", []int{42})
	if err != nil {
		t.Fatalf("IndexEntries singleton: %v", err)
	}
	if len(es) != a.M*a.ScaleOf("5") {
		t.Errorf("singleton entries = %d, want M*scale = %d", len(es), a.M*a.ScaleOf("5"))
	}
	for _, e := range es {
		if e.BlockID != 42 {
			t.Errorf("singleton entry points at block %d", e.BlockID)
		}
	}
}

func TestTranslateRangeEquality(t *testing.T) {
	a, _ := Build("val", fig6Freq, keys())
	for _, v := range a.Values() {
		rs, err := a.TranslateRange(xpath.OpEq, v)
		if err != nil {
			t.Fatalf("TranslateRange: %v", err)
		}
		if len(rs) != 1 {
			t.Fatalf("equality -> %d ranges", len(rs))
		}
		ciphers, _ := a.CipherValues(v)
		for _, c := range ciphers {
			if c < rs[0].Lo || c > rs[0].Hi {
				t.Errorf("cipher of %s outside its equality range", v)
			}
		}
		// No other value's ciphertexts fall in the range.
		for _, o := range a.Values() {
			if o == v {
				continue
			}
			for _, c := range mustCiphers(t, a, o) {
				if c >= rs[0].Lo && c <= rs[0].Hi {
					t.Errorf("cipher of %s inside equality range of %s", o, v)
				}
			}
		}
	}
}

func mustCiphers(t *testing.T, a *Attribute, v string) []uint64 {
	t.Helper()
	cs, err := a.CipherValues(v)
	if err != nil {
		t.Fatalf("CipherValues(%s): %v", v, err)
	}
	return cs
}

func TestTranslateRangeInequalities(t *testing.T) {
	a, _ := Build("val", fig6Freq, keys())
	// Values sorted numerically: 12, 23, 77, 90, 932, 1001.
	inRange := func(rs []Range, c uint64) bool {
		for _, r := range rs {
			if c >= r.Lo && c <= r.Hi {
				return true
			}
		}
		return false
	}
	check := func(op xpath.Op, lit string, holds func(v string) bool) {
		rs, err := a.TranslateRange(op, lit)
		if err != nil {
			t.Fatalf("TranslateRange(%v, %s): %v", op, lit, err)
		}
		for _, v := range a.Values() {
			for _, c := range mustCiphers(t, a, v) {
				if got := inRange(rs, c); got != holds(v) {
					t.Errorf("op %v lit %s value %s: inRange=%v want %v", op, lit, v, got, holds(v))
				}
			}
		}
	}
	check(xpath.OpLt, "77", func(v string) bool { return v == "12" || v == "23" })
	check(xpath.OpLe, "77", func(v string) bool { return v == "12" || v == "23" || v == "77" })
	check(xpath.OpGt, "77", func(v string) bool { return v == "90" || v == "932" || v == "1001" })
	check(xpath.OpGe, "77", func(v string) bool { return v != "12" && v != "23" })
	check(xpath.OpNe, "77", func(v string) bool { return v != "77" })
	// Literal between two domain values.
	check(xpath.OpGt, "50", func(v string) bool { return v != "12" && v != "23" })
	check(xpath.OpEq, "50", func(v string) bool { return false })
}

func TestCategoricalDomain(t *testing.T) {
	freq := map[string]int{"diarrhea": 2, "leukemia": 1, "flu": 3}
	a, err := Build("disease", freq, keys())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if a.Numeric {
		t.Fatalf("disease should be categorical")
	}
	// Order is lexicographic: diarrhea < flu < leukemia.
	vs := a.Values()
	if vs[0] != "diarrhea" || vs[1] != "flu" || vs[2] != "leukemia" {
		t.Fatalf("values = %v", vs)
	}
	// Equality ranges separate values.
	rd, _ := a.TranslateRange(xpath.OpEq, "diarrhea")
	rl, _ := a.TranslateRange(xpath.OpEq, "leukemia")
	if rd[0].Hi >= rl[0].Lo {
		t.Errorf("categorical ranges overlap")
	}
	// Unknown literal: empty match but valid range.
	ru, err := a.TranslateRange(xpath.OpEq, "gout")
	if err != nil {
		t.Fatalf("unknown literal: %v", err)
	}
	for _, v := range vs {
		for _, c := range mustCiphers(t, a, v) {
			if c >= ru[0].Lo && c <= ru[0].Hi {
				t.Errorf("unknown literal range matches %s", v)
			}
		}
	}
}

func TestNumDistinctCiphertexts(t *testing.T) {
	a, _ := Build("val", fig6Freq, keys())
	n := a.NumDistinctCiphertexts()
	if n <= len(a.Values()) {
		t.Errorf("splitting should expand the domain: n=%d k=%d", n, len(a.Values()))
	}
	total := 0
	for _, v := range a.Values() {
		total += len(a.ChunksOf(v))
	}
	if n != total {
		t.Errorf("NumDistinctCiphertexts = %d, want %d", n, total)
	}
}

func TestBandsDisjoint(t *testing.T) {
	// Two attributes in different bands must occupy disjoint
	// ciphertext windows, even with identical value domains.
	ks := keys()
	freq := map[string]int{"10": 5, "20": 5}
	a1, err := BuildBand("attr1", freq, ks, 1)
	if err != nil {
		t.Fatalf("BuildBand: %v", err)
	}
	a2, err := BuildBand("attr2", freq, ks, 2)
	if err != nil {
		t.Fatalf("BuildBand: %v", err)
	}
	var max1, min2 uint64 = 0, ^uint64(0)
	for _, v := range a1.Values() {
		for _, c := range mustCiphers(t, a1, v) {
			if c > max1 {
				max1 = c
			}
		}
	}
	for _, v := range a2.Values() {
		for _, c := range mustCiphers(t, a2, v) {
			if c < min2 {
				min2 = c
			}
		}
	}
	if max1 >= min2 {
		t.Errorf("bands interleave: max(band1)=%d >= min(band2)=%d", max1, min2)
	}
	// Open-ended ranges stay inside the attribute's own band.
	rs, err := a1.TranslateRange(xpath.OpGt, "10")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Hi >= min2 {
			t.Errorf("band-1 range [%d, %d] reaches into band 2 (starts %d)", r.Lo, r.Hi, min2)
		}
	}
	rs, err = a2.TranslateRange(xpath.OpLt, "20")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Lo <= max1 {
			t.Errorf("band-2 range [%d, %d] reaches into band 1 (ends %d)", r.Lo, r.Hi, max1)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("empty", map[string]int{}, keys()); err == nil {
		t.Errorf("empty domain accepted")
	}
	if _, err := Build("bad", map[string]int{"x": 0}, keys()); err == nil {
		t.Errorf("zero frequency accepted")
	}
}

// Property: for random frequency maps, splitting preserves the total
// occurrence count (Σn_i = Σf_j, the invariant scaling then breaks),
// chunk sizes stay within [M-1, M+1] (or 1 for singletons), and
// ciphertexts never straddle.
func TestQuickSplitInvariants(t *testing.T) {
	ks := keys()
	f := func(seed uint32) bool {
		s := seed
		next := func(n uint32) uint32 {
			s = s*1664525 + 1013904223
			return (s >> 16) % n
		}
		freq := map[string]int{}
		k := int(next(8)) + 1
		for i := 0; i < k; i++ {
			freq[string(rune('a'+i))] = int(next(40)) + 1
		}
		a, err := Build("q", freq, ks)
		if err != nil {
			t.Logf("Build: %v", err)
			return false
		}
		var prevMax uint64
		first := true
		for _, v := range a.Values() {
			sum := 0
			for _, c := range a.ChunksOf(v) {
				sum += c
			}
			want := freq[v]
			if want == 1 {
				if len(a.ChunksOf(v)) != a.M {
					return false
				}
			} else if sum != want {
				return false
			}
			cs, err := a.CipherValues(v)
			if err != nil {
				return false
			}
			if !first && cs[0] <= prevMax {
				return false
			}
			first = false
			prevMax = cs[len(cs)-1]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
