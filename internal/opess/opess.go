// Package opess implements the paper's order-preserving encryption
// with splitting and scaling (§5.2.1, "OPESS"): the transform the
// client applies to leaf values before placing them in the server's
// value index (internal/btree).
//
// Splitting defeats the frequency-based attack on the index: the
// occurrences of each distinct plaintext value are partitioned into
// chunks of sizes m−1, m and m+1 (for the largest workable m), and
// each chunk is mapped to its own ciphertext value, so the observed
// ciphertext frequency distribution is nearly flat regardless of the
// input skew (Figure 6). Chunk ciphertexts are produced by
// displacing the plaintext by cumulative random fractions of the
// inter-value gap δ and applying order-preserving encryption, which
// guarantees property (*): ciphertexts of different plaintexts never
// straddle, so range queries remain answerable (Figure 7a).
//
// Scaling defeats the residual attack of summing adjacent ciphertext
// frequencies until they match a known plaintext frequency: each
// value's index entries are replicated by a secret per-value factor
// in [1, 10], destroying the total-count invariant.
//
// Note on δ: the paper's text sets δ = max gap between consecutive
// plaintext values, but property (*) requires the displacement
// (which can approach δ) to stay below EVERY gap; we therefore use
// the minimum gap, which is what the paper's 23→32 worked example
// effectively assumes.
package opess

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/btree"
	"repro/internal/cryptoprim"
	"repro/internal/xpath"
)

// Attribute is the OPESS transformer for one indexed leaf tag. It is
// client-side state: the server sees only the resulting ciphertext
// values and index entries.
type Attribute struct {
	Tag     string
	Numeric bool

	// M is the middle chunk size: chunks are M-1, M, M+1.
	M int
	// K is the number of split positions (distinct displacement
	// sums), i.e. the max number of ciphertext values any single
	// plaintext value maps to.
	K int
	// W holds the K random displacement weights, ascending, each in
	// (0, 1/(K+1)); chunk n of a value v is displaced to
	// v + (w1+...+wn)·δ.
	W []float64
	// Delta is the minimum gap between consecutive distinct
	// plaintext values (in mapped numeric space).
	Delta float64

	values []string           // distinct plaintext values, ascending
	num    map[string]float64 // plaintext value -> mapped numeric
	chunks map[string][]int   // plaintext value -> chunk sizes
	scale  map[string]int     // plaintext value -> scale factor 1..10
	ope    *cryptoprim.OPE
}

// Build analyzes the exact occurrence-frequency distribution of a
// leaf tag (the same knowledge the attacker is assumed to hold) and
// constructs its OPESS transformer in ciphertext band 0.
func Build(tag string, freq map[string]int, keys *cryptoprim.KeySet) (*Attribute, error) {
	return BuildBand(tag, freq, keys, 0)
}

// BuildBand is Build with an explicit ciphertext band: the client
// assigns one band per indexed attribute so that attributes sharing
// the server's value index never interleave (range windows and MIN/MAX
// probes stay attribute-precise, and an update re-issues exactly the
// edited attribute's band).
func BuildBand(tag string, freq map[string]int, keys *cryptoprim.KeySet, band uint8) (*Attribute, error) {
	if len(freq) == 0 {
		return nil, fmt.Errorf("opess: attribute %q has no values", tag)
	}
	a := &Attribute{
		Tag:    tag,
		num:    map[string]float64{},
		chunks: map[string][]int{},
		scale:  map[string]int{},
		ope:    cryptoprim.NewOPEBand(keys, 6, band),
	}
	for v, n := range freq {
		if n <= 0 {
			return nil, fmt.Errorf("opess: value %q has nonpositive frequency %d", v, n)
		}
		a.values = append(a.values, v)
	}

	// Numeric when every value parses as a float; otherwise the
	// categorical domain is mapped to 1..k by rank (the client keeps
	// the mapping, per §5.2.1).
	a.Numeric = true
	for _, v := range a.values {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			a.Numeric = false
			break
		}
	}
	if a.Numeric {
		sort.Slice(a.values, func(i, j int) bool {
			fi, _ := strconv.ParseFloat(a.values[i], 64)
			fj, _ := strconv.ParseFloat(a.values[j], 64)
			return fi < fj
		})
		for _, v := range a.values {
			f, _ := strconv.ParseFloat(v, 64)
			a.num[v] = f
		}
	} else {
		sort.Strings(a.values)
		for i, v := range a.values {
			a.num[v] = float64(i + 1)
		}
	}

	// δ = minimum gap between consecutive mapped values.
	a.Delta = 1
	for i := 1; i < len(a.values); i++ {
		gap := a.num[a.values[i]] - a.num[a.values[i-1]]
		if gap <= 0 {
			return nil, fmt.Errorf("opess: duplicate mapped values %q, %q", a.values[i-1], a.values[i])
		}
		if i == 1 || gap < a.Delta {
			a.Delta = gap
		}
	}

	a.M = chooseM(freq)
	maxChunks := 0
	hasSingleton := false
	for _, v := range a.values {
		n := freq[v]
		if n == 1 {
			// §5.2.1: a value with a single occurrence is split into
			// M ciphertext values, all standing for that occurrence.
			a.chunks[v] = singletonChunks(a.M)
			hasSingleton = true
		} else {
			cs, err := decompose(n, a.M)
			if err != nil {
				return nil, err
			}
			a.chunks[v] = cs
		}
		if len(a.chunks[v]) > maxChunks {
			maxChunks = len(a.chunks[v])
		}
	}
	a.K = maxChunks
	if hasSingleton && a.M > a.K {
		a.K = a.M
	}

	// K random weights in (0, 1/(K+1)), ascending, keyed per tag.
	for j := 0; j < a.K; j++ {
		r := keys.OPESSRand(tag, "w", j)
		a.W = append(a.W, (0.05+0.9*r)/float64(a.K+1))
	}
	sort.Float64s(a.W)

	// Per-value integer scale factor in [1, 10].
	for i, v := range a.values {
		a.scale[v] = 1 + int(keys.OPESSRand(tag, "scale", i)*10)
		if a.scale[v] > 10 {
			a.scale[v] = 10
		}
	}
	return a, nil
}

// chooseM picks the maximum middle chunk size m >= 3 such that every
// frequency greater than 1 is expressible as a non-negative integer
// combination of m-1, m, m+1; (2,3,4) always works (§5.2.1).
func chooseM(freq map[string]int) int {
	minN := 0
	for _, n := range freq {
		if n > 1 && (minN == 0 || n < minN) {
			minN = n
		}
	}
	if minN == 0 {
		return 3 // only singletons
	}
	for m := minN + 1; m >= 3; m-- {
		ok := true
		for _, n := range freq {
			if n > 1 && !representable(n, m) {
				ok = false
				break
			}
		}
		if ok {
			return m
		}
	}
	return 3
}

// representable reports whether n = a(m-1) + b·m + c(m+1) has a
// solution in non-negative integers: some chunk count t satisfies
// t(m-1) <= n <= t(m+1).
func representable(n, m int) bool {
	for t := (n + m) / (m + 1); t*(m-1) <= n; t++ {
		if t >= 1 && t*(m-1) <= n && n <= t*(m+1) {
			return true
		}
	}
	return false
}

// decompose splits n occurrences into the fewest chunks of sizes
// m-1, m, m+1.
func decompose(n, m int) ([]int, error) {
	for t := (n + m) / (m + 1); t*(m-1) <= n; t++ {
		if t < 1 || n < t*(m-1) || n > t*(m+1) {
			continue
		}
		r := n - t*m
		chunks := make([]int, t)
		for i := range chunks {
			chunks[i] = m
		}
		switch {
		case r > 0:
			for i := 0; i < r; i++ {
				chunks[i] = m + 1
			}
		case r < 0:
			for i := 0; i < -r; i++ {
				chunks[i] = m - 1
			}
		}
		return chunks, nil
	}
	return nil, fmt.Errorf("opess: %d occurrences not representable with chunks (%d,%d,%d)", n, m-1, m, m+1)
}

func singletonChunks(m int) []int {
	cs := make([]int, m)
	for i := range cs {
		cs[i] = 1
	}
	return cs
}

// Values returns the distinct plaintext values in ascending order.
func (a *Attribute) Values() []string { return a.values }

// NumDistinctCiphertexts returns the total number of distinct
// ciphertext values this attribute maps to (the "n" of Theorem 5.2,
// versus k = len(Values())).
func (a *Attribute) NumDistinctCiphertexts() int {
	total := 0
	for _, cs := range a.chunks {
		total += len(cs)
	}
	return total
}

// ScaleOf exposes the secret scale factor of a value; used by tests
// and the attack simulator's "insider" checks.
func (a *Attribute) ScaleOf(v string) int { return a.scale[v] }

// ChunksOf exposes the chunk decomposition of a value.
func (a *Attribute) ChunksOf(v string) []int { return a.chunks[v] }

// mapped returns the numeric image of a plaintext literal, which may
// be absent from the known domain: numeric literals parse directly;
// unknown categorical literals map between the ranks of their
// lexicographic neighbors.
func (a *Attribute) mapped(lit string) (float64, error) {
	if a.Numeric {
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return 0, fmt.Errorf("opess: non-numeric literal %q for numeric attribute %s", lit, a.Tag)
		}
		return f, nil
	}
	if f, ok := a.num[lit]; ok {
		return f, nil
	}
	i := sort.SearchStrings(a.values, lit)
	return float64(i) + 0.5, nil // between rank i and i+1
}

// cumW returns w1 + ... + wn.
func (a *Attribute) cumW(n int) float64 {
	s := 0.0
	for j := 0; j < n && j < len(a.W); j++ {
		s += a.W[j]
	}
	return s
}

// CipherValues returns the ordered ciphertext values the plaintext
// value v splits into: chunk n maps to E(v + (w1+...+wn)·δ).
func (a *Attribute) CipherValues(v string) ([]uint64, error) {
	cs, ok := a.chunks[v]
	if !ok {
		return nil, fmt.Errorf("opess: value %q not in the domain of %s", v, a.Tag)
	}
	base, err := a.mapped(v)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(cs))
	for n := range cs {
		c, err := a.ope.Encrypt(base + a.cumW(n+1)*a.Delta)
		if err != nil {
			return nil, err
		}
		out[n] = c
	}
	return out, nil
}

// IndexEntries maps the occurrences of value v — given as the block
// IDs containing them, in document order — to value-index entries:
// occurrences are dealt to chunks in order, and every entry is
// replicated by the value's secret scale factor.
func (a *Attribute) IndexEntries(v string, blockIDs []int) ([]btree.Entry, error) {
	cs, ok := a.chunks[v]
	if !ok {
		return nil, fmt.Errorf("opess: value %q not in the domain of %s", v, a.Tag)
	}
	ciphers, err := a.CipherValues(v)
	if err != nil {
		return nil, err
	}
	want := 0
	singleton := len(cs) > 0 && cs[0] == 1 && len(blockIDs) == 1
	if singleton {
		want = 1
	} else {
		for _, c := range cs {
			want += c
		}
	}
	if len(blockIDs) != want {
		return nil, fmt.Errorf("opess: %s=%q has %d occurrences, expected %d", a.Tag, v, len(blockIDs), want)
	}
	s := a.scale[v]
	var out []btree.Entry
	if singleton {
		// One occurrence split across M ciphertext values, each
		// pointing at the same block.
		for _, c := range ciphers {
			for r := 0; r < s; r++ {
				out = append(out, btree.Entry{Key: c, BlockID: blockIDs[0]})
			}
		}
		return out, nil
	}
	pos := 0
	for i, size := range cs {
		for j := 0; j < size; j++ {
			for r := 0; r < s; r++ {
				out = append(out, btree.Entry{Key: ciphers[i], BlockID: blockIDs[pos]})
			}
			pos++
		}
	}
	return out, nil
}

// Range is an inclusive ciphertext range on the value index.
type Range struct {
	Lo, Hi uint64
}

// Empty reports an unsatisfiable range.
func (r Range) Empty() bool { return r.Lo > r.Hi }

// TranslateRange implements Figure 7(a): it rewrites a comparison
// "value op literal" into ciphertext ranges for the server's value
// index. Equality and inequality bounds account for splitting: a value
// v's ciphertexts all lie in [E(v + w1·δ), E(v + (Σw)·δ)]. OpNe
// yields two ranges; every other operator yields one.
//
// A non-numeric literal against a numeric attribute cannot be placed
// in the order-preserving domain: equality then matches nothing, and
// every other operator falls back to the whole band (possible-match
// semantics; the client's post-processing compares exactly).
func (a *Attribute) TranslateRange(op xpath.Op, lit string) ([]Range, error) {
	base, err := a.mapped(lit)
	if err != nil {
		bandLo, bandHi := a.ope.BandRange()
		if op == xpath.OpEq {
			return []Range{{Lo: 1, Hi: 0}}, nil // unsatisfiable
		}
		return []Range{{Lo: bandLo, Hi: bandHi}}, nil
	}
	loCipher, err := a.ope.Encrypt(base + a.cumW(1)*a.Delta)
	if err != nil {
		return nil, err
	}
	hiCipher, err := a.ope.Encrypt(base + a.cumW(a.K)*a.Delta)
	if err != nil {
		return nil, err
	}
	// Open-ended bounds clamp to the attribute's band so the range
	// never spills into another attribute's entries.
	bandLo, bandHi := a.ope.BandRange()
	switch op {
	case xpath.OpEq:
		return []Range{{loCipher, hiCipher}}, nil
	case xpath.OpNe:
		return []Range{{bandLo, loCipher - 1}, {hiCipher + 1, bandHi}}, nil
	case xpath.OpLt:
		return []Range{{bandLo, loCipher - 1}}, nil
	case xpath.OpLe:
		return []Range{{bandLo, hiCipher}}, nil
	case xpath.OpGt:
		return []Range{{hiCipher + 1, bandHi}}, nil
	case xpath.OpGe:
		return []Range{{loCipher, bandHi}}, nil
	default:
		return nil, fmt.Errorf("opess: unsupported operator %v", op)
	}
}
