package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The workload names are fixed: every performance claim in this
// repository names one of them together with one metric.
var workloadNames = []string{"point", "twig", "bulk", "mixed"}

// datasetFacts is what the generators need to know about one <dataset>
// record of the model document, as plain strings (layers.go extracts
// it, so this file needs no access to the document model).
type datasetFacts struct {
	Altname, Date, Publisher, Age, Journal string
	Keywords, Lasts, Initials              []string
}

// op is one client operation: a query, or (Update) an edit that sets
// every leaf Query selects to Value.
type op struct {
	Query  string
	Update bool
	Value  string
}

// workload is one seed-determined traffic mix. Each reader is the op
// sequence of one closed-loop client goroutine, walked cyclically; a
// non-empty writer is the sequence of one more client that only
// updates.
type workload struct {
	Name    string
	Readers [][]string
	Writer  []op
	// Probe is the short edit sequence a read-only workload ends with, on
	// the then idle service: the durability check, and the source of its
	// update metrics.
	Probe    []op
	Distinct []string // every distinct query, for the pre-timing oracle check
	// OracleSample is how many of the distinct queries, drawn by the
	// seed, the pre-timing check byte-compares.
	OracleSample int
	WarmupOps    int // per client, before timing
	TracedOps    int // single-client replay length of the traced pass

	writerPos int // the writer's sequence is walked once, never cyclically
}

// bulkQueries are the large-answer queries of the bulk workload: each
// selects a third to a half of all datasets, whole subtrees, so that
// after the warm-up cycles the server's answer cache serves them and
// the cost that is left is codec, verify, decrypt and post-process.
// Their sizes are kept close, and their number odd, so that the median
// latency falls inside one query's distribution and not between two.
var bulkQueries = []string{
	"//dataset[publisher='NASA']",
	"//dataset[reference/journal='ApJ']",
	"//dataset[@subject='astronomy']",
	"//dataset[city='Vancouver']",
	"//dataset[.//keyword='stars']",
	"//dataset[.//keyword='galaxies']",
	"//dataset[age<=3]",
	"//dataset[date<=1967]",
	"//dataset[author/initial='A']",
}

// pointFrames lists the point-lookup frames, one family per shape, one
// frame per distinct altname in each.
func pointFrames(ds []datasetFacts) [][]string {
	seen := map[string]bool{}
	out := make([][]string, 2)
	for _, d := range ds {
		if seen[d.Altname] {
			continue
		}
		seen[d.Altname] = true
		out[0] = append(out[0], fmt.Sprintf("//dataset[altname='%s']/title", d.Altname))
		out[1] = append(out[1], fmt.Sprintf("//dataset[altname='%s']//keyword", d.Altname))
	}
	return out
}

// twigShapes are the two-predicate twig families: a format and which
// two facts of a dataset fill it. Three compare an encrypted leaf
// (last, initial), which is what sends the server through OPESS ranges
// and the value index; the //* anchors leave the structure to the
// synopsis.
var twigShapes = []struct {
	format string
	values func(d datasetFacts) (as, bs []string)
}{
	{"//dataset[date=%s][publisher='%s']/title", func(d datasetFacts) ([]string, []string) { return []string{d.Date}, []string{d.Publisher} }},
	{"//dataset[age=%s][.//keyword='%s']/altname", func(d datasetFacts) ([]string, []string) { return []string{d.Age}, d.Keywords }},
	{"//*[reference/journal='%s'][keywords/keyword='%s']/title", func(d datasetFacts) ([]string, []string) { return []string{d.Journal}, d.Keywords }},
	{"//dataset[author/last='%s'][publisher='%s']/title", func(d datasetFacts) ([]string, []string) { return d.Lasts, []string{d.Publisher} }},
	{"//dataset[author/last='%s'][date=%s]/altname", func(d datasetFacts) ([]string, []string) { return d.Lasts, []string{d.Date} }},
	{"//*[author/last='%s'][reference/journal='%s']/title", func(d datasetFacts) ([]string, []string) { return d.Lasts, []string{d.Journal} }},
	{"//dataset[author/initial='%s'][age=%s]/title", func(d datasetFacts) ([]string, []string) { return d.Initials, []string{d.Age} }},
}

// twigFrames lists, family by family, every distinct twig some dataset
// of the document satisfies, so each is non-empty by construction.
func twigFrames(ds []datasetFacts) [][]string {
	out := make([][]string, len(twigShapes))
	for f, shape := range twigShapes {
		seen := map[string]bool{}
		for _, d := range ds {
			as, bs := shape.values(d)
			for _, a := range as {
				for _, b := range bs {
					if q := fmt.Sprintf(shape.format, a, b); !seen[q] {
						seen[q] = true
						out[f] = append(out[f], q)
					}
				}
			}
		}
	}
	return out
}

// editTargets lists single-leaf update targets: the last and initial
// of datasets that have a unique altname and exactly one author, so
// the selecting query binds exactly one encrypted leaf. Each target's
// Value is the leaf's value in the document as generated. The two
// domains are the values each attribute already takes somewhere.
func editTargets(ds []datasetFacts) (targets []op, lasts, initials []string) {
	count := map[string]int{}
	ls, is := map[string]bool{}, map[string]bool{}
	for _, d := range ds {
		count[d.Altname]++
		for _, l := range d.Lasts {
			ls[l] = true
		}
		for _, i := range d.Initials {
			is[i] = true
		}
	}
	for _, d := range ds {
		if count[d.Altname] == 1 && len(d.Lasts) == 1 && len(d.Initials) == 1 {
			targets = append(targets,
				op{Query: fmt.Sprintf("//dataset[altname='%s']/author/last", d.Altname), Value: d.Lasts[0]},
				op{Query: fmt.Sprintf("//dataset[altname='%s']/author/initial", d.Altname), Value: d.Initials[0]})
		}
	}
	return targets, sortedKeys(ls), sortedKeys(is)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shuffled returns a seeded permutation of xs. Walking a permutation
// (rather than drawing with replacement) fixes the reuse distance of
// every frame at len(xs), which is what keeps the server's answer and
// plan caches cold on point and twig.
func shuffled(r *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// interleave shuffles each family with r and merges them so that every
// stretch of the result holds the families in the proportion of their
// sizes: element i of a family of n sits at (i+½)/n of the way through.
// Families differ in cost by an order of magnitude, so a window that
// ends mid-cycle must still have seen the same mix.
func interleave(r *rand.Rand, families [][]string) []string {
	type placed struct {
		at float64
		q  string
	}
	var all []placed
	for _, fam := range families {
		for i, q := range shuffled(r, fam) {
			all = append(all, placed{(float64(i) + 0.5) / float64(len(fam)), q})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.q
	}
	return out
}

// deal splits seq between n clients in contiguous parts; after
// interleave every part holds the same mix of families.
func deal(seq []string, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = seq[i*len(seq)/n : (i+1)*len(seq)/n]
	}
	return out
}

// editOps builds n single-leaf edits over a seeded pool of at most
// pool targets. New values come from the attribute's existing domain
// (the OPESS domain must not grow mid-run) and always differ from the
// value the leaf holds when the edit is issued.
func editOps(r *rand.Rand, ds []datasetFacts, pool, n int) []op {
	targets, lasts, initials := editTargets(ds)
	r.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	if len(targets) > pool {
		targets = targets[:pool]
	}
	out := make([]op, 0, n)
	for i := 0; i < n && len(targets) > 0; i++ {
		t := &targets[i%len(targets)]
		dom := lasts
		if strings.HasSuffix(t.Query, "/initial") {
			dom = initials
		}
		v := dom[r.Intn(len(dom))]
		for v == t.Value && len(dom) > 1 {
			v = dom[r.Intn(len(dom))]
		}
		t.Value = v
		out = append(out, op{Query: t.Query, Update: true, Value: v})
	}
	return out
}

// clients is the closed-loop client count: one per core of the 2-core
// reference box (mixed runs one writer beside one reader).
const clients = 2

// probeEdits is the length of a read-only workload's closing edit
// sequence; the recovery that follows replays them from the WAL.
const probeEdits = 40

// buildWorkload generates the named workload for a seed. The same
// (facts, seed) always yields the same sequences.
func buildWorkload(name string, ds []datasetFacts, seed int64) (*workload, error) {
	r := rand.New(rand.NewSource(seed))
	w := &workload{Name: name}
	switch name {
	case "point":
		w.Distinct = interleave(r, pointFrames(ds))
		w.Readers = deal(w.Distinct, clients)
		w.OracleSample, w.WarmupOps, w.TracedOps = 200, 100, 300
	case "twig":
		w.Distinct = interleave(r, twigFrames(ds))
		w.Readers = deal(w.Distinct, clients)
		w.OracleSample, w.WarmupOps, w.TracedOps = 200, 50, 200
	case "bulk":
		w.Distinct, w.OracleSample = bulkQueries, len(bulkQueries)
		for i := 0; i < clients; i++ {
			w.Readers = append(w.Readers, shuffled(r, bulkQueries))
		}
		// Two warm-up cycles per client fill the answer cache; the
		// traced pass replays whole cycles so every query weighs the same.
		w.WarmupOps, w.TracedOps = 2*len(bulkQueries), 6*len(bulkQueries)
	case "mixed":
		w.Distinct = interleave(r, pointFrames(ds))
		w.Readers = [][]string{w.Distinct}
		w.Writer = editOps(r, ds, 128, 1<<14)
		w.OracleSample, w.WarmupOps, w.TracedOps = 200, 100, 300
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.Probe = editOps(r, ds, probeEdits, probeEdits)
	return w, nil
}
