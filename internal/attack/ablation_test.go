package attack

import (
	"reflect"
	"testing"

	"repro/internal/cryptoprim"
	"repro/internal/datagen"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/sc"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// The ablations quantify each defense the paper introduces by
// removing it and counting what the attacker gains, and what the
// defense costs. Every count is deterministic; EXPERIMENTS.md (E11,
// E13) quotes them.

// TestDecoyAblation runs the §4.1 frequency attack against leaf
// encryption with and without decoys, under the deterministic
// encryption model the attack assumes: ciphertext classes are the
// distinct serialized block plaintexts, and the attacker matches
// class frequencies against the known value frequencies.
func TestDecoyAblation(t *testing.T) {
	doc := datagen.NASA(40, 21)
	scs, err := sc.ParseAll(datagen.NASASCs())
	if err != nil {
		t.Fatal(err)
	}
	keys := cryptoprim.MustKeySet("ablation-decoy")
	classes := func(decoys bool) map[string]map[string]int {
		s, err := scheme.LeafNaive(doc, scs, decoys)
		if err != nil {
			t.Fatalf("LeafNaive(%v): %v", decoys, err)
		}
		perTag := map[string]map[string]int{}
		var decoyCtr uint64
		for _, root := range s.BlockRoots {
			if !root.IsLeaf() {
				continue
			}
			w := xmltree.NewElement("w")
			w.AppendChild(root.Clone())
			if s.Decoy[root] {
				decoyCtr++
				w.AppendValue("_decoy", keys.RandomDecoy(decoyCtr))
			}
			if perTag[root.Tag] == nil {
				perTag[root.Tag] = map[string]int{}
			}
			perTag[root.Tag][xmltree.NewDocument(w).String()]++
		}
		return perTag
	}
	plainFreqs := doc.LeafValueFrequencies()
	noDecoy, withDecoy := classes(false), classes(true)
	// tag -> {distinct values, cracked without decoys, cracked with}.
	got := map[string][3]int{}
	for tag, cf := range noDecoy {
		pf := plainFreqs[tag]
		got[tag] = [3]int{len(pf), len(CrackByFrequency(pf, cf)), len(CrackByFrequency(pf, withDecoy[tag]))}
	}
	// Without decoys every unique-frequency value is cracked; with
	// decoys every ciphertext is unique and nothing is.
	want := map[string][3]int{
		"age":       {19, 3, 0},
		"city":      {8, 5, 0},
		"date":      {22, 3, 0},
		"initial":   {15, 3, 0},
		"last":      {18, 3, 0},
		"publisher": {7, 5, 0},
		"title":     {40, 0, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoy ablation {distinct, cracked without, cracked with}:\n got  %v\n want %v", got, want)
	}
}

// TestScalingAblation runs the §5.2.1 adjacent-sum attack against
// each OPESS-indexed attribute with and without scaling: the number
// of groupings of adjacent ciphertext frequencies consistent with the
// attacker's exact plaintext knowledge (1 is a unique crack, 0 means
// the observation contradicts that knowledge), and the index entries
// the defense costs.
func TestScalingAblation(t *testing.T) {
	doc := datagen.NASA(60, 22)
	keys := cryptoprim.MustKeySet("ablation-scaling")
	// tag -> {groupings unscaled, groupings scaled, entries unscaled,
	// entries scaled}.
	got := map[string][4]int{}
	for tag, freq := range doc.LeafValueFrequencies() {
		// Attributes with a singleton value are skipped: the §5.2.1
		// singleton rule replicates it into M entries, which alone
		// breaks the totals. This isolates what scaling adds.
		singleton := len(freq) < 2
		for _, n := range freq {
			singleton = singleton || n == 1
		}
		if singleton {
			continue
		}
		attr, err := opess.Build(tag, freq, keys)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		var plain, unscaled, scaled []int
		entPlain, entScaled := 0, 0
		for _, v := range attr.Values() {
			plain = append(plain, freq[v])
			for _, c := range attr.ChunksOf(v) {
				unscaled = append(unscaled, c)
				scaled = append(scaled, c*attr.ScaleOf(v))
				entPlain += c
				entScaled += c * attr.ScaleOf(v)
			}
		}
		got[tag] = [4]int{
			CountConsistentGroupings(unscaled, plain),
			CountConsistentGroupings(scaled, plain),
			entPlain, entScaled,
		}
	}
	want := map[string][4]int{
		"@subject":  {1, 0, 60, 250},
		"keyword":   {1, 0, 155, 1144},
		"publisher": {1, 0, 60, 371},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scaling ablation {groupings unscaled, scaled, entries unscaled, scaled}:\n got  %v\n want %v", got, want)
	}
}

// TestGroupingAblation measures the §5.1.1 grouping of adjacent
// same-tag intervals on a document hosted under the top scheme (one
// whole-document block, where every run of same-tag siblings is
// groupable): the DSI entries the server stores, and Theorem 5.1's
// structural candidate count the attacker faces.
func TestGroupingAblation(t *testing.T) {
	doc := datagen.NASA(50, 23)
	s := scheme.Top(doc)
	md, err := dsi.BuildMetadata(doc, s.BlockRoots, cryptoprim.MustKeySet("ablation-grouping"))
	if err != nil {
		t.Fatal(err)
	}
	ungrouped := 0
	for _, n := range doc.Nodes() {
		if n.Kind != xmltree.Text {
			ungrouped++
		}
	}
	if grouped := md.Table.NumEntries(); grouped != 782 || ungrouped != 928 {
		t.Errorf("DSI entries grouped %d, ungrouped %d; want 782, 928", grouped, ungrouped)
	}

	// Per block, C(n-1, k-1) for n leaves represented by k leaf-level
	// intervals: the forest leaves below the block's root.
	var pairs [][2]int
	f := dsi.BuildForest(md.Table)
	for _, root := range s.BlockRoots {
		leaves := 0
		root.Walk(func(n *xmltree.Node) bool {
			if n.Kind != xmltree.Text && n.IsLeaf() {
				leaves++
			}
			return true
		})
		k := 0
		for _, n := range f.Descendants(f.All(), f.Num(md.Assignment[root])) {
			if f.IsLeaf(n) {
				k++
			}
		}
		if leaves > 1 && k >= 1 && k < leaves {
			pairs = append(pairs, [2]int{leaves, k})
		}
	}
	// 363 bits: about 10^109 structurally indistinguishable candidates.
	if bits := StructuralCandidates(pairs).BitLen(); bits != 363 {
		t.Errorf("structural candidates have %d bits, want 363", bits)
	}
}
