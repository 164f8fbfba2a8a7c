package server

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/dsi"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The matcher implements §6.2's structural joins over DSI intervals
// with *three-valued* semantics. Grouping (one interval may stand
// for several sibling nodes) and block-granular value lookups mean
// the server can only decide "possibly matches" or "certainly
// matches" for some constructs. The main path prunes with the
// possible (upper) semantics — over-selection is corrected by the
// client's post-processing — while negation flips to the certain
// (lower) semantics so that not(...) never under-selects:
//
//	upper(not e) = !lower(e),   lower(not e) = !upper(e)
//
// Joins exploit laminarity: the intervals of each DSI table label
// are kept sorted by lower bound, so the candidates inside a context
// interval are found by binary search (dsi.Within) rather than a
// scan.

// exec carries per-query state: sn is the snapshot the query pinned
// (every db read goes through it, so the whole match sees one
// generation), and rangeMemo pointer-keys the range resolutions this
// query already holds so a predicate evaluated against thousands of
// context intervals does not even re-hash its fingerprint. The memo
// is only a fast path in front of the server's generation-keyed
// range cache (cache.go) — pointer identity is safe HERE because the
// memo dies with the request, and the pinned snapshot fixes the db
// state every resolution came from. A query runs on its caller's
// goroutine, so the memo is a plain map.
type exec struct {
	srv *Server
	sn  *snapshot
	pl  *plan

	rangeMemo map[*wire.PredValue]map[int]bool
}

// newExec binds a query execution to its pinned snapshot; no lock is
// held — the snapshot is immutable.
func (s *Server) newExec(sn *snapshot, pl *plan) *exec {
	return &exec{srv: s, sn: sn, pl: pl, rangeMemo: map[*wire.PredValue]map[int]bool{}}
}

// ivBufPool recycles the interval scratch slices the matcher chains
// through. Aliasing rule: a pooled buffer's intervals never leave the
// function that got it — results that escape (matchFirst, matchChain)
// are copied out exact-size before the buffer is returned.
var ivBufPool = sync.Pool{New: func() any { return new([]dsi.Interval) }}

// ivBufMaxCap bounds the capacity a returned buffer may retain
// (256 KiB of intervals) so one giant step result cannot pin memory
// in the pool.
const ivBufMaxCap = 1 << 14

func getIvBuf() *[]dsi.Interval { return ivBufPool.Get().(*[]dsi.Interval) }

// presizeIvBuf grows a pooled buffer to the planner's cardinality
// estimate up front (clamped to the pool's retention cap), replacing
// append's doubling-regrowth with a single allocation when the
// estimate exceeds what the pool handed back.
func presizeIvBuf(p *[]dsi.Interval, n int) {
	if n > ivBufMaxCap {
		n = ivBufMaxCap
	}
	if n > cap(*p) {
		*p = make([]dsi.Interval, 0, n)
	}
}

func putIvBuf(p *[]dsi.Interval) {
	if cap(*p) > ivBufMaxCap {
		return
	}
	*p = (*p)[:0]
	ivBufPool.Put(p)
}

// matchFirst evaluates the first step of the main path: its context
// is the virtual document node, so a non-descendant child step must
// match a forest root, while a "//" step may match any interval.
func (e *exec) matchFirst(st *wire.QStep) []dsi.Interval {
	f := e.sn.st.forest
	buf := getIvBuf()
	presizeIvBuf(buf, e.stepEstimate(st))
	cands := (*buf)[:0]
	for _, list := range e.stepLists(st) {
		for _, iv := range list {
			if st.Desc || f.Parent(f.Num(iv)) < 0 {
				cands = append(cands, iv)
			}
		}
	}
	cands = e.applyPreds(dedupeSorted(cands), e.orderedPreds(st))
	var out []dsi.Interval
	if len(cands) > 0 {
		out = append(make([]dsi.Interval, 0, len(cands)), cands...)
	}
	*buf = cands[:0]
	putIvBuf(buf)
	return out
}

// batchJoinThreshold switches downward steps from per-context
// probing (O(|ctx| log n)) to the batched sort-merge structural join
// (O(|ctx| + n)) once the context set is large enough to amortize.
const batchJoinThreshold = 8

// matchChain evaluates a step chain from a set of context intervals
// with the given strictness, returning the final step's survivors.
//
// Each step accumulates into a pooled scratch buffer; dedupeSorted
// and the predicate filters then compact that buffer in place (safe:
// the chain owns it — ctxs itself is only ever read). The previous
// step's buffer is recycled as soon as the next one is built, and the
// final survivors are copied out exact-size so no pooled memory
// escapes.
func (e *exec) matchChain(ctxs []dsi.Interval, st *wire.QStep, upper bool) []dsi.Interval {
	cur := ctxs
	var owned *[]dsi.Interval // pool token backing cur; nil while cur aliases ctxs or a batch result
	for ; st != nil; st = st.Next {
		var next []dsi.Interval
		var nextOwned *[]dsi.Interval
		lists := e.stepLists(st)
		if batched, ok := e.batchStep(cur, st, lists); ok {
			next = batched
		} else {
			nextOwned = getIvBuf()
			presizeIvBuf(nextOwned, e.stepEstimate(st))
			next = (*nextOwned)[:0]
			for _, ctx := range cur {
				next = e.stepFrom(next, ctx, st, lists, upper)
			}
		}
		res := dedupeSorted(next)
		preds := e.orderedPreds(st)
		if upper {
			res = e.applyPreds(res, preds)
		} else {
			res = e.filterCertain(res, preds)
		}
		if owned != nil {
			putIvBuf(owned)
		}
		owned, cur = nextOwned, res
		if owned != nil {
			*owned = res[:0] // track the (possibly regrown) backing
		}
		if len(cur) == 0 {
			if owned != nil {
				putIvBuf(owned)
			}
			return nil
		}
	}
	if owned == nil {
		return cur
	}
	out := append(make([]dsi.Interval, 0, len(cur)), cur...)
	putIvBuf(owned)
	return out
}

// batchStep applies one downward step to the whole context set with
// the sort-merge structural join (§6.2's batched form). Only the
// child/attribute/descendant axes are batchable; other axes (and
// wildcard tests, whose candidate set is the whole forest) fall back
// to per-context probing.
func (e *exec) batchStep(ctxs []dsi.Interval, st *wire.QStep, lists [][]dsi.Interval) ([]dsi.Interval, bool) {
	if len(ctxs) < batchJoinThreshold || st.Labels == nil {
		return nil, false
	}
	desc := false
	switch st.Axis {
	case xpath.AxisDescendant:
		desc = true
	case xpath.AxisChild, xpath.AxisAttribute:
		desc = st.Desc
	default:
		return nil, false
	}
	var out []dsi.Interval
	for _, list := range lists {
		if desc {
			out = append(out, dsi.DescendantJoin(ctxs, list)...)
		} else {
			out = append(out, dsi.ChildJoin(e.sn.st.forest, ctxs, list)...)
		}
	}
	return out, true
}

// matchRelative evaluates a (predicate) path from one context.
func (e *exec) matchRelative(ctx dsi.Interval, st *wire.QStep, upper bool) []dsi.Interval {
	if st == nil {
		return []dsi.Interval{ctx}
	}
	return e.matchChain([]dsi.Interval{ctx}, st, upper)
}

// stepFrom applies one step's axis and node test from one context
// interval, appending survivors to dst (which may be a pooled
// buffer owned by the caller). lists must be e.stepLists(st),
// resolved once per step rather than once per context. In upper mode,
// sibling axes additionally match the context's own interval when it
// lies inside an encryption block: such an interval may be a group
// standing for several adjacent same-tag siblings (§5.1.1), and the
// server cannot rule that out — by design.
func (e *exec) stepFrom(dst []dsi.Interval, ctx dsi.Interval, st *wire.QStep, lists [][]dsi.Interval, upper bool) []dsi.Interval {
	f := e.sn.st.forest
	out := dst
	switch st.Axis {
	case xpath.AxisSelf, xpath.AxisParent, xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
		i := f.Num(ctx)
		if st.Axis == xpath.AxisParent || st.Axis == xpath.AxisAncestor {
			i = f.Parent(i)
		}
		for ; i >= 0; i = f.Parent(i) {
			if st.Labels == nil || hasAnyLabel(f.Labels(i), st.Labels) {
				out = append(out, f.Interval(i))
			}
			if st.Axis == xpath.AxisSelf || st.Axis == xpath.AxisParent {
				break
			}
		}
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		parent, hasParent := f.ParentOf(ctx)
		for _, list := range lists {
			var sibs []dsi.Interval
			if hasParent {
				sibs = dsi.Within(list, parent)
			} else {
				sibs = list // root level: siblings are other roots
			}
			for _, iv := range sibs {
				var ok bool
				switch {
				case iv.Equal(ctx):
					// A grouped interval may hide several adjacent
					// same-tag siblings; possible but never certain.
					ok = upper && e.sn.blockIDFor(ctx) >= 0
				case st.Axis == xpath.AxisFollowingSibling:
					ok = f.FollowingSibling(ctx, iv)
				default:
					ok = f.FollowingSibling(iv, ctx)
				}
				if ok {
					out = append(out, iv)
				}
			}
		}
	case xpath.AxisDescendant:
		for _, list := range lists {
			out = append(out, dsi.Within(list, ctx)...)
		}
	case xpath.AxisDescendantOrSelf:
		for _, list := range lists {
			out = append(out, dsi.Within(list, ctx)...)
		}
		if st.Labels == nil || hasAnyLabel(f.Labels(f.Num(ctx)), st.Labels) {
			out = append(out, ctx)
		}
	default: // child, attribute
		for _, list := range lists {
			inside := dsi.Within(list, ctx)
			if st.Desc {
				out = append(out, inside...)
				continue
			}
			for _, iv := range inside {
				if p, ok := f.ParentOf(iv); ok && p.Equal(ctx) {
					out = append(out, iv)
				}
			}
		}
	}
	return out
}

// stepLists returns a step's candidate lists, both resolved when the
// plan was compiled: a main-path step's (synopsis-restricted where the
// planner pruned), or a predicate sub-path step's full table lists.
// Restricted lists keep the labelLists shape and sort order, so every
// join below runs unchanged — just over fewer intervals.
func (e *exec) stepLists(st *wire.QStep) [][]dsi.Interval {
	if sp, ok := e.pl.steps[st]; ok {
		return sp.lists
	}
	return e.pl.subLists[st]
}

// orderedPreds returns the planner's predicate evaluation order for a
// step, falling back to query order when the planner left it alone.
// Predicates are conjunctive filters, so the order changes work, not
// answers.
func (e *exec) orderedPreds(st *wire.QStep) []wire.QPred {
	if ord, ok := e.pl.predOrder[st]; ok {
		return ord
	}
	return st.Preds
}

// stepEstimate returns the size of a main-path step's candidate
// lists; 0 (no hint) for predicate sub-path steps the planner did not
// size.
func (e *exec) stepEstimate(st *wire.QStep) int {
	return e.pl.steps[st].est
}

// labelLists returns the Lo-sorted interval list of each table label
// the node test matches; a wildcard yields the full sorted universe.
func (sn *snapshot) labelLists(labels []string) [][]dsi.Interval {
	if labels == nil {
		return [][]dsi.Interval{sn.st.forest.Intervals()}
	}
	out := make([][]dsi.Interval, 0, len(labels))
	for _, l := range labels {
		if ivs := sn.db.Table.Lookup(l); len(ivs) > 0 {
			out = append(out, ivs)
		}
	}
	return out
}

// hasAnyLabel reports that a node filed under the labels have passes
// a node test naming the labels want.
func hasAnyLabel(have, want []string) bool {
	for _, l := range have {
		if slices.Contains(want, l) {
			return true
		}
	}
	return false
}

// applyPreds prunes candidates with the possible (upper) semantics.
// Positional predicates are NOT applied: an interval may group
// several siblings, so server-side positions are unreliable; the
// client re-applies the original query and restores them exactly.
func (e *exec) applyPreds(cands []dsi.Interval, preds []wire.QPred) []dsi.Interval {
	cur := cands
	for _, p := range preds {
		if _, ok := p.(*wire.PredPos); ok {
			continue
		}
		cur = e.filterPred(cur, p, true)
	}
	return cur
}

// filterCertain keeps candidates whose predicates certainly hold.
func (e *exec) filterCertain(cands []dsi.Interval, preds []wire.QPred) []dsi.Interval {
	cur := cands
	for _, p := range preds {
		cur = e.filterPred(cur, p, false)
	}
	return cur
}

// filterPred evaluates one predicate over the candidate set. The
// survivors are compacted into the front of cands — every caller owns
// its candidate buffer (matchFirst and matchChain pass their own
// scratch), so filtering in place is safe and the cold path stays
// allocation-free here.
func (e *exec) filterPred(cands []dsi.Interval, p wire.QPred, upper bool) []dsi.Interval {
	kept := cands[:0]
	for _, iv := range cands {
		if e.evalPred(iv, p, upper) {
			kept = append(kept, iv)
		}
	}
	return kept
}

// evalPred evaluates a predicate at a context with the given
// strictness: upper=true asks "could this hold", upper=false asks
// "does this certainly hold".
func (e *exec) evalPred(ctx dsi.Interval, p wire.QPred, upper bool) bool {
	switch v := p.(type) {
	case *wire.PredExists:
		if !upper && e.sn.blockIDFor(ctx) >= 0 {
			// An in-block context interval may be a group standing
			// for several adjacent same-tag siblings (§5.1.1); a
			// match found inside it proves existence for *some*
			// member, not for every one, so it is never certain —
			// claiming it would let not(...) under-select.
			return false
		}
		return len(e.matchRelative(ctx, v.Path, upper)) > 0
	case *wire.PredValue:
		return e.evalValuePred(ctx, v, upper)
	case *wire.PredAnd:
		return e.evalPred(ctx, v.L, upper) && e.evalPred(ctx, v.R, upper)
	case *wire.PredOr:
		return e.evalPred(ctx, v.L, upper) || e.evalPred(ctx, v.R, upper)
	case *wire.PredNot:
		return !e.evalPred(ctx, v.E, !upper)
	case *wire.PredPos:
		// Positions are unreliable at interval granularity: possibly
		// true, never certain.
		return upper
	default:
		return false
	}
}

// evalValuePred implements step 2/3 of §6.2 for one context with
// target-precise three-valued semantics:
//
//   - A residue target whose subtree hides no encrypted content is
//     compared exactly (decisive in both modes).
//   - A residue target with placeholders below has an incomplete
//     visible string-value: possibly true, never certain.
//   - An encrypted leaf-level target is checked against the value
//     index at block granularity: possible when its block appears in
//     the range lookup, never certain.
//   - An encrypted interior target's string-value spans several
//     indexed leaves and cannot be reconstructed server-side:
//     possibly true, never certain.
//
// A residue target is decided from its boot-time facts (residueFact)
// against the literal the plan decoded, so no candidate's subtree is
// walked, concatenated or parsed here.
func (e *exec) evalValuePred(ctx dsi.Interval, v *wire.PredValue, upper bool) bool {
	targets := e.matchRelative(ctx, v.Path, upper)
	if len(targets) == 0 {
		return false
	}
	pp := e.pl.preds[v]
	f := e.sn.st.forest
	for _, tgt := range targets {
		i := f.Num(tgt) // every match is a table interval
		if r := &e.sn.st.residue[i]; r.node != nil && !r.placeholder {
			if r.hidesBlock {
				if upper {
					return true
				}
				continue
			}
			if r.val.Holds(v.Op, pp.lit) {
				return true
			}
			continue
		}
		// Encrypted target (its own block, or a placeholder standing
		// for one). Only the upper bound can ever hold.
		if !upper {
			continue
		}
		// A forest leaf stands for leaf nodes only (grouping merges
		// adjacent leaves, so groups remain forest leaves).
		if f.IsLeaf(i) && len(v.Ranges) > 0 {
			if bid := e.sn.blockIDFor(tgt); bid >= 0 && e.rangeBlocksFor(v, pp.fp)[bid] {
				return true
			}
			continue
		}
		// Interior encrypted target, or no usable index ranges: the
		// server cannot rule the match out.
		return true
	}
	return false
}

func isPlaceholder(n *xmltree.Node) bool {
	return n.Kind == xmltree.Element && n.Tag == wire.PlaceholderTag
}

// rangeBlocksFor resolves the blocks whose indexed values fall in
// any of the predicate's ciphertext ranges (fp is its plan
// fingerprint), first through the request-scoped memo, then through
// the server's generation-keyed cross-query cache. The resolved set is
// read-only once published — concurrent queries share it.
func (e *exec) rangeBlocksFor(v *wire.PredValue, fp string) map[int]bool {
	if cached, ok := e.rangeMemo[v]; ok {
		return cached
	}
	if cached, ok := e.srv.caches.ranges.Get(e.srv.epoch, e.sn.gen, fp); ok {
		blocks := cached.(map[int]bool)
		e.rangeMemo[v] = blocks
		return blocks
	}
	blocks := map[int]bool{}
	for _, r := range v.Ranges {
		if r.Empty() {
			continue
		}
		for _, bid := range e.sn.index.RangeBlocks(r.Lo, r.Hi) {
			blocks[bid] = true
		}
	}
	e.rangeMemo[v] = blocks
	e.srv.caches.ranges.Put(e.srv.epoch, e.sn.gen, fp, blocks, len(fp)+16*len(blocks))
	return blocks
}

// blockIDFor locates the encryption block containing an interval via
// binary search over the (disjoint, sorted) representative
// intervals; -1 when the interval lies in the plaintext residue.
func (sn *snapshot) blockIDFor(iv dsi.Interval) int {
	idx := sn.st.blockIdx
	i := sort.Search(len(idx), func(i int) bool { return idx[i].iv.Lo > iv.Lo }) - 1
	if i >= 0 && idx[i].iv.Contains(iv) {
		return idx[i].id
	}
	return -1
}

func dedupeSorted(ivs []dsi.Interval) []dsi.Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	dsi.SortIntervals(ivs)
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		if !iv.Equal(out[len(out)-1]) {
			out = append(out, iv)
		}
	}
	return out
}
