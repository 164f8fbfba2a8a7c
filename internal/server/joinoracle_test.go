package server_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/difftest"
	"repro/internal/dsi"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The matcher's joins as they ran over DSI intervals before it spoke
// node numbers, kept as the reference the number joins are checked
// against: dsi.Within's binary search on Lo, the sort-merge
// DescendantJoin, the ParentOf-keyed ChildJoin and sibling test, and
// the binary search over block representatives. They read the table
// and the reference forest of nodetable_test.go, never the node table.

// refWithin returns the subslice of the Lo-sorted laminar list ivs
// lying strictly inside ctx.
func refWithin(ivs []dsi.Interval, ctx dsi.Interval) []dsi.Interval {
	lo := sort.Search(len(ivs), func(i int) bool { return ivs[i].Lo > ctx.Lo })
	hi := sort.Search(len(ivs), func(i int) bool { return ivs[i].Lo >= ctx.Hi })
	return ivs[lo:hi]
}

// refContains reports o ⊆ iv (equality allowed).
func refContains(iv, o dsi.Interval) bool { return iv.Lo <= o.Lo && o.Hi <= iv.Hi }

// refOutermost returns the maximal intervals of a sorted laminar list.
func refOutermost(ivs []dsi.Interval) []dsi.Interval {
	var out []dsi.Interval
	for _, iv := range ivs {
		if len(out) > 0 && refContains(out[len(out)-1], iv) {
			continue
		}
		out = append(out, iv)
	}
	return out
}

// refDescendantJoin returns the candidates strictly inside at least
// one context interval; both lists sorted.
func refDescendantJoin(ctxs, cands []dsi.Interval) []dsi.Interval {
	anc := refOutermost(ctxs)
	var out []dsi.Interval
	i := 0
	for _, c := range cands {
		for i < len(anc) && anc[i].Hi <= c.Lo {
			i++
		}
		if i < len(anc) && anc[i].Lo < c.Lo && c.Hi < anc[i].Hi {
			out = append(out, c)
		}
	}
	return out
}

// refChildJoin returns the candidates whose forest parent is one of
// the context intervals.
func refChildJoin(rf *refForest, ctxs, cands []dsi.Interval) []dsi.Interval {
	inCtx := make(map[dsi.Interval]bool, len(ctxs))
	for _, c := range ctxs {
		inCtx[c] = true
	}
	var out []dsi.Interval
	for _, c := range cands {
		if p, ok := rf.parentOf(c); ok && inCtx[p] {
			out = append(out, c)
		}
	}
	return out
}

// intervalOracle is the interval-keyed state the matcher read: the
// table's sorted label lists, the sorted universe, the reference
// forest and the Lo-sorted block representatives.
type intervalOracle struct {
	lists map[string][]dsi.Interval
	all   []dsi.Interval
	rf    *refForest
	reps  []refRep
}

type refRep struct {
	iv dsi.Interval
	id int
}

func newIntervalOracle(db *wire.HostedDB) *intervalOracle {
	o := &intervalOracle{lists: map[string][]dsi.Interval{}, rf: refBuildForest(db.Table)}
	for l, ivs := range db.Table.ByTag {
		o.lists[l] = slices.Clone(ivs)
		dsi.SortIntervals(o.lists[l])
	}
	o.all = o.rf.intervals()
	for id, rep := range db.BlockReps {
		o.reps = append(o.reps, refRep{rep, id})
	}
	sort.Slice(o.reps, func(i, j int) bool { return o.reps[i].iv.Lo < o.reps[j].iv.Lo })
	return o
}

// blockIDFor locates the block containing an interval, -1 when it
// lies in the plaintext residue.
func (o *intervalOracle) blockIDFor(iv dsi.Interval) int {
	i := sort.Search(len(o.reps), func(i int) bool { return o.reps[i].iv.Lo > iv.Lo }) - 1
	if i >= 0 && refContains(o.reps[i].iv, iv) {
		return o.reps[i].id
	}
	return -1
}

func (o *intervalOracle) labelLists(labels []string) [][]dsi.Interval {
	if labels == nil {
		return [][]dsi.Interval{o.all}
	}
	var out [][]dsi.Interval
	for _, l := range labels {
		if ivs := o.lists[l]; len(ivs) > 0 {
			out = append(out, ivs)
		}
	}
	return out
}

func (o *intervalOracle) hasLabel(iv dsi.Interval, labels []string) bool {
	return labels == nil || slices.ContainsFunc(labels, func(l string) bool { return slices.Contains(o.lists[l], iv) })
}

// stepFrom is the matcher's per-context step over intervals.
func (o *intervalOracle) stepFrom(ctx dsi.Interval, st *wire.QStep, upper bool) []dsi.Interval {
	var out []dsi.Interval
	lists := o.labelLists(st.Labels)
	switch st.Axis {
	case xpath.AxisSelf, xpath.AxisParent, xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
		path := []dsi.Interval{ctx}
		for p, ok := o.rf.parentOf(ctx); ok; p, ok = o.rf.parentOf(p) {
			path = append(path, p)
		}
		switch st.Axis {
		case xpath.AxisSelf:
			path = path[:1]
		case xpath.AxisParent:
			path = path[1:min(2, len(path))]
		case xpath.AxisAncestor:
			path = path[1:]
		}
		for _, iv := range path {
			if o.hasLabel(iv, st.Labels) {
				out = append(out, iv)
			}
		}
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		parent, hasParent := o.rf.parentOf(ctx)
		for _, list := range lists {
			sibs := list
			if hasParent {
				sibs = refWithin(list, parent)
			}
			for _, iv := range sibs {
				var ok bool
				switch {
				case iv == ctx:
					ok = upper && o.blockIDFor(ctx) >= 0
				case st.Axis == xpath.AxisFollowingSibling:
					ok = o.rf.areSiblings(ctx, iv) && ctx.Hi < iv.Lo
				default:
					ok = o.rf.areSiblings(iv, ctx) && iv.Hi < ctx.Lo
				}
				if ok {
					out = append(out, iv)
				}
			}
		}
	case xpath.AxisDescendant, xpath.AxisDescendantOrSelf:
		for _, list := range lists {
			out = append(out, refWithin(list, ctx)...)
		}
		if st.Axis == xpath.AxisDescendantOrSelf && o.hasLabel(ctx, st.Labels) {
			out = append(out, ctx)
		}
	default: // child, attribute
		for _, list := range lists {
			inside := refWithin(list, ctx)
			if st.Desc {
				out = append(out, inside...)
				continue
			}
			for _, iv := range inside {
				if p, ok := o.rf.parentOf(iv); ok && p == ctx {
					out = append(out, iv)
				}
			}
		}
	}
	return refDedupe(out)
}

// batchStep is the matcher's former batched downward step.
func (o *intervalOracle) batchStep(ctxs []dsi.Interval, st *wire.QStep) []dsi.Interval {
	var out []dsi.Interval
	for _, list := range o.labelLists(st.Labels) {
		if st.Axis == xpath.AxisDescendant || st.Desc {
			out = append(out, refDescendantJoin(ctxs, list)...)
		} else {
			out = append(out, refChildJoin(o.rf, ctxs, list)...)
		}
	}
	return refDedupe(out)
}

func refDedupe(ivs []dsi.Interval) []dsi.Interval {
	dsi.SortIntervals(ivs)
	return slices.Compact(ivs)
}

var oracleAxes = []xpath.Axis{
	xpath.AxisChild, xpath.AxisAttribute, xpath.AxisDescendant, xpath.AxisDescendantOrSelf,
	xpath.AxisSelf, xpath.AxisParent, xpath.AxisAncestor, xpath.AxisAncestorOrSelf,
	xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling,
}

// TestNumberJoinsMatchIntervalOracle checks every axis step of the
// number matcher against the interval joins it replaced, on every
// difftest corpus document and a NASA and an XMark document under
// every scheme. From each context node (all of them, or a seeded
// sample of 150 on larger documents), each axis runs with no node
// test, with the context's own labels (so a sibling step meets the
// grouped-self case in a block) and with those plus another node's,
// in both strictness modes; the downward axes also run from all the
// nodes of each label, and from all nodes, at once, against the
// batched joins. The block
// column must equal the block-containment search at every node.
func TestNumberJoinsMatchIntervalOracle(t *testing.T) {
	type doc struct {
		name string
		doc  *xmltree.Document
		scs  []string
	}
	var docs []doc
	for _, seed := range difftest.CorpusSeeds {
		c := difftest.GenCase(seed)
		docs = append(docs, doc{fmt.Sprintf("%s/%d", c.DocName, seed), c.Doc, c.SCs})
	}
	docs = append(docs,
		doc{"nasa", datagen.NASA(60, 2006), datagen.NASASCs()},
		doc{"xmark", datagen.XMark(30, 2006), datagen.XMarkSCs()})
	for _, d := range docs {
		for _, name := range difftest.Schemes {
			sys, err := core.Host(d.doc, d.scs, name, []byte("join-oracle"))
			if err != nil {
				t.Fatalf("%s: host %s: %v", d.name, name, err)
			}
			if err := checkNumberJoins(sys.HostedDB, rand.New(rand.NewSource(int64(len(d.name))))); err != nil {
				t.Fatalf("%s, %s: %v", d.name, name, err)
			}
		}
	}
}

func checkNumberJoins(db *wire.HostedDB, r *rand.Rand) error {
	srv := server.New(db)
	f, _ := srv.NodeTable()
	o := newIntervalOracle(db)
	n := int32(f.Size())
	for i, bid := range srv.BlockColumn() {
		if want := o.blockIDFor(f.Interval(int32(i))); int(bid) != want {
			return fmt.Errorf("node %d %v: block %d, want %d", i, f.Interval(int32(i)), bid, want)
		}
	}
	ctxs := make([]int32, n)
	for i := range ctxs {
		ctxs[i] = int32(i)
	}
	if n > 150 {
		r.Shuffle(len(ctxs), func(i, j int) { ctxs[i], ctxs[j] = ctxs[j], ctxs[i] })
		ctxs = ctxs[:150]
	}
	for _, ctx := range ctxs {
		own := f.Labels(ctx)
		more := append(slices.Clone(own), f.Labels(r.Int31n(n))...)
		for _, labels := range [][]string{nil, own, more} {
			for _, axis := range oracleAxes {
				for _, desc := range []bool{false, true} {
					if desc && axis != xpath.AxisChild {
						continue
					}
					st := &wire.QStep{Axis: axis, Desc: desc, Labels: labels}
					for _, upper := range []bool{true, false} {
						got := nodeIntervals(f, srv.Step([]int32{ctx}, st, upper))
						if want := o.stepFrom(f.Interval(ctx), st, upper); !slices.Equal(got, want) {
							return fmt.Errorf("%v::%v (desc %v, upper %v) from %v: %v, want %v",
								axis, labels, desc, upper, f.Interval(ctx), got, want)
						}
					}
				}
			}
		}
	}
	// The downward axes from every node filed under a label at once,
	// and from every node (each context nested in its parent).
	sets := map[string][]int32{"*": f.All()}
	for l := range db.Table.ByTag {
		sets[l] = f.Nodes(l)
	}
	for l, set := range sets {
		for _, st := range []*wire.QStep{
			{Axis: xpath.AxisChild},
			{Axis: xpath.AxisChild, Labels: []string{l}},
			{Axis: xpath.AxisChild, Desc: true},
			{Axis: xpath.AxisDescendant, Labels: []string{l}},
		} {
			got := nodeIntervals(f, srv.Step(set, st, true))
			if want := o.batchStep(nodeIntervals(f, set), st); !slices.Equal(got, want) {
				return fmt.Errorf("batched %v::%v (desc %v) from the %d nodes of %s: %d results, want %d",
					st.Axis, st.Labels, st.Desc, len(set), l, len(got), len(want))
			}
		}
	}
	return nil
}
