package server

import (
	"slices"
	"sync"

	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The matcher implements §6.2's structural joins over the node table
// (dsi.Forest) with *three-valued* semantics. Grouping (one interval
// may stand for several sibling nodes) and block-granular value
// lookups mean the server can only decide "possibly matches" or
// "certainly matches" for some constructs. The main path prunes with
// the possible (upper) semantics — over-selection is corrected by the
// client's post-processing — while negation flips to the certain
// (lower) semantics so that not(...) never under-selects:
//
//	upper(not e) = !lower(e),   lower(not e) = !upper(e)
//
// Joins run on node numbers, never on intervals: the members of each
// DSI table label are kept in ascending number (document) order, and a
// node's subtree is the number range [i, end[i]], so the candidates
// below a context are found by binary search (Forest.Descendants) and
// the child and sibling tests read the parent column. Numbers become
// intervals only at the answer edge (assemble).

// exec carries per-query state: sn is the snapshot the query pinned
// (every db read goes through it, so the whole match sees one
// generation), and rangeMemo pointer-keys the range resolutions this
// query already holds so a predicate evaluated against thousands of
// context nodes does not even re-hash its fingerprint. The memo
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

// numBufPool recycles the node-number scratch slices the matcher
// chains through. Aliasing rule: a pooled buffer's numbers never leave
// the function that got it — results that escape (matchFirst,
// matchChain) are copied out exact-size before the buffer is returned.
var numBufPool = sync.Pool{New: func() any { return new([]int32) }}

// numBufMaxCap bounds the capacity a returned buffer may retain
// (256 KiB of node numbers) so one giant step result cannot pin memory
// in the pool.
const numBufMaxCap = 1 << 16

// getNumBuf takes an empty buffer from the pool, grown to the
// planner's cardinality estimate up front (clamped to the pool's
// retention cap): a single allocation instead of append's
// doubling-regrowth when the estimate exceeds what the pool handed
// back.
func getNumBuf(est int) *[]int32 {
	p := numBufPool.Get().(*[]int32)
	if n := min(est, numBufMaxCap); n > cap(*p) {
		*p = make([]int32, 0, n)
	}
	return p
}

func putNumBuf(p *[]int32) {
	if cap(*p) > numBufMaxCap {
		return
	}
	*p = (*p)[:0]
	numBufPool.Put(p)
}

// matchFirst evaluates the first step of the main path: its context
// is the virtual document node, so a non-descendant child step must
// match a forest root, while a "//" step may match any node.
func (e *exec) matchFirst(st *wire.QStep) []int32 {
	f := e.sn.st.forest
	buf := getNumBuf(e.stepEstimate(st))
	cands := *buf
	for _, list := range e.stepLists(st) {
		for _, n := range list {
			if st.Desc || f.Parent(n) < 0 {
				cands = append(cands, n)
			}
		}
	}
	cands = e.applyPreds(dedupeSorted(cands), e.orderedPreds(st))
	var out []int32
	if len(cands) > 0 {
		out = append(make([]int32, 0, len(cands)), cands...)
	}
	*buf = cands
	putNumBuf(buf)
	return out
}

// matchChain evaluates a step chain from an ascending set of context
// nodes with the given strictness, returning the final step's
// survivors.
//
// Each step accumulates into a pooled scratch buffer; dedupeSorted
// and the predicate filters then compact that buffer in place (safe:
// the chain owns it — ctxs itself is only ever read). The previous
// step's buffer is recycled as soon as the next one is built, and the
// final survivors are copied out exact-size so no pooled memory
// escapes.
func (e *exec) matchChain(ctxs []int32, st *wire.QStep, upper bool) []int32 {
	cur := ctxs
	var owned *[]int32 // pool token backing cur; nil while cur aliases ctxs
	for ; st != nil; st = st.Next {
		buf := getNumBuf(e.stepEstimate(st))
		res := dedupeSorted(e.step(*buf, cur, st, upper))
		preds := e.orderedPreds(st)
		if upper {
			res = e.applyPreds(res, preds)
		} else {
			res = e.filterCertain(res, preds)
		}
		if owned != nil {
			putNumBuf(owned)
		}
		owned, cur = buf, res
		*owned = res // track the (possibly regrown) backing
		if len(cur) == 0 {
			putNumBuf(owned)
			return nil
		}
	}
	out := append(make([]int32, 0, len(cur)), cur...)
	if owned != nil {
		putNumBuf(owned)
	}
	return out
}

// step applies one step's axis and node test to the ascending context
// set, appending the survivors to dst (unsorted, possibly repeated:
// callers dedupe). The downward axes join the whole set at once
// (§6.2's batched structural joins); the upward and sibling axes walk
// from each context.
func (e *exec) step(dst, ctxs []int32, st *wire.QStep, upper bool) []int32 {
	f := e.sn.st.forest
	lists := e.stepLists(st)
	switch st.Axis {
	case xpath.AxisDescendant, xpath.AxisDescendantOrSelf:
		for _, list := range lists {
			dst = f.JoinDescendants(dst, ctxs, list)
		}
		if st.Axis == xpath.AxisDescendantOrSelf {
			for _, ctx := range ctxs {
				if st.Labels == nil || hasAnyLabel(f.Labels(ctx), st.Labels) {
					dst = append(dst, ctx)
				}
			}
		}
	case xpath.AxisChild, xpath.AxisAttribute:
		for _, list := range lists {
			if st.Desc {
				dst = f.JoinDescendants(dst, ctxs, list)
			} else {
				dst = f.JoinChildren(dst, ctxs, list)
			}
		}
	default:
		for _, ctx := range ctxs {
			dst = e.stepFrom(dst, ctx, st, lists, upper)
		}
	}
	return dst
}

// matchRelative evaluates a (predicate) path from one context.
func (e *exec) matchRelative(ctx int32, st *wire.QStep, upper bool) []int32 {
	if st == nil {
		return []int32{ctx}
	}
	return e.matchChain([]int32{ctx}, st, upper)
}

// stepFrom applies one self, parent, ancestor or sibling step from one
// context node, appending survivors to dst. lists must be
// e.stepLists(st), resolved once per step rather than once per
// context. In upper mode, sibling axes additionally match the context
// itself when it lies inside an encryption block: its interval may be
// a group standing for several adjacent same-tag siblings (§5.1.1),
// and the server cannot rule that out — by design.
func (e *exec) stepFrom(dst []int32, ctx int32, st *wire.QStep, lists [][]int32, upper bool) []int32 {
	f := e.sn.st.forest
	switch st.Axis {
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		p := f.Parent(ctx)
		for _, list := range lists {
			sibs := list // a root has no siblings: only the grouped self can match
			if p >= 0 {
				sibs = f.Descendants(list, p)
			}
			for _, n := range sibs {
				var ok bool
				switch {
				case n == ctx:
					// A grouped interval may hide several adjacent
					// same-tag siblings; possible but never certain.
					ok = upper && e.sn.st.block[ctx] >= 0
				case p < 0 || f.Parent(n) != p:
				case st.Axis == xpath.AxisFollowingSibling:
					ok = n > ctx
				default:
					ok = n < ctx
				}
				if ok {
					dst = append(dst, n)
				}
			}
		}
	default: // self, parent, ancestor, ancestor-or-self
		i := ctx
		if st.Axis == xpath.AxisParent || st.Axis == xpath.AxisAncestor {
			i = f.Parent(i)
		}
		for ; i >= 0; i = f.Parent(i) {
			if st.Labels == nil || hasAnyLabel(f.Labels(i), st.Labels) {
				dst = append(dst, i)
			}
			if st.Axis == xpath.AxisSelf || st.Axis == xpath.AxisParent {
				break
			}
		}
	}
	return dst
}

// stepLists returns a step's candidate lists, both resolved when the
// plan was compiled: a main-path step's (synopsis-restricted where the
// planner pruned), or a predicate sub-path step's full table lists.
// Restricted lists keep the labelLists shape and sort order, so every
// join runs unchanged — just over fewer nodes.
func (e *exec) stepLists(st *wire.QStep) [][]int32 {
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

// labelLists returns the ascending node list of each table label the
// node test matches; a wildcard yields every node.
func (sn *snapshot) labelLists(labels []string) [][]int32 {
	f := sn.st.forest
	if labels == nil {
		return [][]int32{f.All()}
	}
	out := make([][]int32, 0, len(labels))
	for _, l := range labels {
		if nodes := f.Nodes(l); len(nodes) > 0 {
			out = append(out, nodes)
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
func (e *exec) applyPreds(cands []int32, preds []wire.QPred) []int32 {
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
func (e *exec) filterCertain(cands []int32, preds []wire.QPred) []int32 {
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
func (e *exec) filterPred(cands []int32, p wire.QPred, upper bool) []int32 {
	kept := cands[:0]
	for _, n := range cands {
		if e.evalPred(n, p, upper) {
			kept = append(kept, n)
		}
	}
	return kept
}

// evalPred evaluates a predicate at a context with the given
// strictness: upper=true asks "could this hold", upper=false asks
// "does this certainly hold".
func (e *exec) evalPred(ctx int32, p wire.QPred, upper bool) bool {
	switch v := p.(type) {
	case *wire.PredExists:
		if !upper && e.sn.st.block[ctx] >= 0 {
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
func (e *exec) evalValuePred(ctx int32, v *wire.PredValue, upper bool) bool {
	targets := e.matchRelative(ctx, v.Path, upper)
	if len(targets) == 0 {
		return false
	}
	pp := e.pl.preds[v]
	f := e.sn.st.forest
	for _, tgt := range targets {
		if r := &e.sn.st.residue[tgt]; r.node != nil && !r.placeholder {
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
		if f.IsLeaf(tgt) && len(v.Ranges) > 0 {
			if bid := e.sn.st.block[tgt]; bid >= 0 && e.rangeBlocksFor(v, pp.fp)[int(bid)] {
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

// dedupeSorted sorts a step's node numbers ascending (document
// order) and drops repeats, in place.
func dedupeSorted(nums []int32) []int32 {
	slices.Sort(nums)
	return slices.Compact(nums)
}
