package server

import (
	"slices"
	"sort"

	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// The cost-based planner. Compilation matches the whole query twig
// against the structure synopsis (the strong DataGuide of path
// classes, see dsi.Guide and synopsis.go) before any interval work:
//
//  1. A forward pass pushes class sets through the main path's axis
//     transitions, filtering each step's classes by whether its
//     required predicates are structurally satisfiable (a class whose
//     label-path cannot reach `reference/source` can never satisfy
//     [reference/source], so none of its intervals can survive that
//     step's predicate filter).
//  2. A backward pass keeps only classes that can also complete the
//     REST of the chain — an interval matching step k is useless if
//     no step-(k+1) transition from its class reaches a completing
//     class.
//  3. Where that removed intervals, the surviving classes' (ascending)
//     member lists replace the step's full table lists; the joins run
//     unchanged over fewer nodes.
//
// There is one join engine and no mode: the synopsis only narrows the
// candidate lists a plan hands the matcher, step by step.
//
// Soundness (answers are byte-identical with and without narrowing,
// checked by TestPruningOnOffIdentical): the class transitions
// over-approximate the interval-level axes — every interval a step
// can produce lies in a class the class-level transition produces (the guide's parent map mirrors the forest's,
// so Parent/Ancestor are exact; the descendant joins yield forest
// descendants, whose classes are guide-subtree classes; siblings share
// the parent class; the grouped-self sibling case stays in its own
// class). The
// backward pruning removes only intervals whose class provably cannot
// complete the chain, and the predicate-skeleton filter removes only
// classes on which the predicate's own evaluation (matchRelative over
// an empty structural reach) returns false for every interval.
// Predicates that can hold on absent structure (not(..), positional)
// never prune, and predicate sub-paths always run over the full
// label lists — only main-path candidate lists are restricted.
//
// The same pass yields per-step cardinality estimates (class member
// counts are exactly the DSI interval-group counts the server is
// allowed to see), which drive the matcher's buffer capacity hints,
// predicate ordering (together with the value index's OPESS band
// occupancy) and the admission cost estimate — one cost currency end
// to end.

// stepPlan is what the matcher reads for one main-path step: the
// per-label candidate node lists its joins run over (ascending; empty
// means the synopsis proved the step unsatisfiable) and their total
// size — the buffer capacity hint and the cost model's fan-out.
type stepPlan struct {
	lists [][]int32
	est   int
}

// classSet is a bitset over guide classes (guides are small: one
// entry per distinct label path, not per interval).
type classSet []bool

func (s classSet) empty() bool {
	for _, b := range s {
		if b {
			return false
		}
	}
	return true
}

func (s classSet) count() int {
	n := 0
	for _, b := range s {
		if b {
			n++
		}
	}
	return n
}

// twigBuilder matches one query twig against the guide.
type twigBuilder struct {
	g *dsi.Guide
}

func (b *twigBuilder) matches(ci int32, labels []string) bool {
	if labels == nil {
		return true
	}
	l := b.g.Node(ci).Label
	for _, want := range labels {
		if l == want {
			return true
		}
	}
	return false
}

// firstSet seeds the forward pass the way matchFirst anchors: a "//"
// first step may match any class, a non-descendant one only root
// classes (root classes contain exactly the forest roots).
func (b *twigBuilder) firstSet(st *wire.QStep) classSet {
	set := make(classSet, b.g.NumClasses())
	if st.Desc {
		for ci := int32(0); ci < int32(b.g.NumClasses()); ci++ {
			if b.matches(ci, st.Labels) {
				set[ci] = true
			}
		}
		return set
	}
	for _, ci := range b.g.Roots() {
		if b.matches(ci, st.Labels) {
			set[ci] = true
		}
	}
	return set
}

// markSubtree sets every proper descendant class of ci matching the
// label test (the class-level image of Forest.Descendants).
func (b *twigBuilder) markSubtree(ci int32, labels []string, into classSet) {
	for _, ch := range b.g.Node(ci).Children {
		if b.matches(ch, labels) {
			into[ch] = true
		}
		b.markSubtree(ch, labels, into)
	}
}

// stepOnce is the class-level image of stepFrom: the set of classes
// whose intervals one axis step can produce from intervals of the
// `from` classes. Over-approximating is sound; under-approximating
// would prune real answers, so every branch mirrors the matcher's
// axis semantics (see stepFrom) at class granularity.
func (b *twigBuilder) stepOnce(from classSet, st *wire.QStep) classSet {
	to := make(classSet, len(from))
	for i, in := range from {
		if !in {
			continue
		}
		ci := int32(i)
		node := b.g.Node(ci)
		switch st.Axis {
		case xpath.AxisSelf:
			if b.matches(ci, st.Labels) {
				to[ci] = true
			}
		case xpath.AxisParent:
			if node.Parent >= 0 && b.matches(node.Parent, st.Labels) {
				to[node.Parent] = true
			}
		case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
			if st.Axis == xpath.AxisAncestorOrSelf && b.matches(ci, st.Labels) {
				to[ci] = true
			}
			for p := node.Parent; p >= 0; p = b.g.Node(p).Parent {
				if b.matches(p, st.Labels) {
					to[p] = true
				}
			}
		case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
			// Siblings are the parent class's children (which include
			// ci itself — covering the grouped-self case, where an
			// in-block interval may hide several adjacent same-tag
			// siblings). Root-level contexts have no forest siblings
			// (a sibling needs a shared parent); only grouped-self can
			// fire there.
			if node.Parent >= 0 {
				for _, sib := range b.g.Node(node.Parent).Children {
					if b.matches(sib, st.Labels) {
						to[sib] = true
					}
				}
			} else if b.matches(ci, st.Labels) {
				to[ci] = true
			}
		case xpath.AxisDescendant:
			b.markSubtree(ci, st.Labels, to)
		case xpath.AxisDescendantOrSelf:
			b.markSubtree(ci, st.Labels, to)
			if b.matches(ci, st.Labels) {
				to[ci] = true
			}
		default: // child, attribute
			if st.Desc {
				b.markSubtree(ci, st.Labels, to)
				continue
			}
			for _, ch := range node.Children {
				if b.matches(ch, st.Labels) {
					to[ch] = true
				}
			}
		}
	}
	return to
}

// chainReach pushes a class set through a whole (predicate sub-)path,
// including nested predicate-skeleton filtering, and returns the
// final reachable set.
func (b *twigBuilder) chainReach(from classSet, st *wire.QStep) classSet {
	cur := from
	for ; st != nil; st = st.Next {
		cur = b.stepOnce(cur, st)
		cur = b.filterPreds(cur, st.Preds)
		if cur.empty() {
			return cur
		}
	}
	return cur
}

// filterPreds drops classes on which a step's required predicates are
// structurally unsatisfiable. Only existence-requiring predicates
// prune (evalPred returns false on an empty structural reach for both
// PredExists and PredValue, in both upper and lower mode); negation
// and positions can hold on absent structure and never prune.
func (b *twigBuilder) filterPreds(set classSet, preds []wire.QPred) classSet {
	if len(preds) == 0 {
		return set
	}
	out := set
	copied := false
	for i, in := range set {
		if !in {
			continue
		}
		ok := true
		for _, p := range preds {
			if !b.predSatisfiable(int32(i), p) {
				ok = false
				break
			}
		}
		if !ok {
			if !copied {
				out = append(classSet(nil), set...)
				copied = true
			}
			out[i] = false
		}
	}
	return out
}

func (b *twigBuilder) predSatisfiable(ci int32, p wire.QPred) bool {
	switch v := p.(type) {
	case *wire.PredExists:
		return b.pathReachable(ci, v.Path)
	case *wire.PredValue:
		return b.pathReachable(ci, v.Path)
	case *wire.PredAnd:
		return b.predSatisfiable(ci, v.L) && b.predSatisfiable(ci, v.R)
	case *wire.PredOr:
		return b.predSatisfiable(ci, v.L) || b.predSatisfiable(ci, v.R)
	default:
		// PredNot (may hold exactly when the inner path is absent) and
		// PredPos (position unknown at class level) never prune.
		return true
	}
}

func (b *twigBuilder) pathReachable(ci int32, st *wire.QStep) bool {
	if st == nil {
		return true // self-valued predicate: the context is the target
	}
	from := make(classSet, b.g.NumClasses())
	from[ci] = true
	return !b.chainReach(from, st).empty()
}

// setCount sums the DSI interval-group counts of a class set — the
// planner's cardinality estimate at the granularity the server is
// allowed to see (grouping hides true node counts by design).
func (b *twigBuilder) setCount(set classSet) int {
	n := 0
	for ci, in := range set {
		if in {
			n += b.g.Count(int32(ci))
		}
	}
	return n
}

// restrictedLists materializes a survivor set as per-label candidate
// lists in the shape labelLists returns: one ascending node list per
// query label (wildcards get one merged list). Class member lists are
// already ascending; merging classes needs one sort per list.
func (b *twigBuilder) restrictedLists(set classSet, labels []string) [][]int32 {
	gather := func(match func(int32) bool) []int32 {
		var out []int32
		for ci, in := range set {
			if in && match(int32(ci)) {
				out = append(out, b.g.Node(int32(ci)).Nodes...)
			}
		}
		slices.Sort(out)
		return out
	}
	if labels == nil {
		if nodes := gather(func(int32) bool { return true }); nodes != nil {
			return [][]int32{nodes}
		}
		return [][]int32{}
	}
	out := make([][]int32, 0, len(labels))
	for _, l := range labels {
		if nodes := gather(func(ci int32) bool { return b.g.Node(ci).Label == l }); nodes != nil {
			out = append(out, nodes)
		}
	}
	return out
}

// survivors runs the forward/backward class-set passes over a main
// path and returns each step's surviving classes.
func (b *twigBuilder) survivors(steps []*wire.QStep) []classSet {
	// Forward: axis transitions plus per-step predicate-skeleton
	// filtering.
	forward := make([]classSet, len(steps))
	cur := b.firstSet(steps[0])
	cur = b.filterPreds(cur, steps[0].Preds)
	forward[0] = cur
	for k := 1; k < len(steps); k++ {
		cur = b.stepOnce(cur, steps[k])
		cur = b.filterPreds(cur, steps[k].Preds)
		forward[k] = cur
	}

	// Backward: a class survives step k only if some single-class
	// transition through step k+1 lands in a surviving class.
	n := b.g.NumClasses()
	out := make([]classSet, len(steps))
	out[len(steps)-1] = forward[len(steps)-1]
	single := make(classSet, n)
	for k := len(steps) - 2; k >= 0; k-- {
		surv := make(classSet, n)
		next := out[k+1]
		for ci, in := range forward[k] {
			if !in {
				continue
			}
			for i := range single {
				single[i] = false
			}
			single[ci] = true
			for ti, t := range b.stepOnce(single, steps[k+1]) {
				if t && next[ti] {
					surv[ci] = true
					break
				}
			}
		}
		out[k] = surv
	}
	return out
}

// planSteps gives every main-path step the candidate lists the
// matcher will join over: the full table lists, replaced by the
// surviving classes' members wherever the class-set pass removed
// intervals. The second result counts the intervals removed across
// all steps (0 when the snapshot has no usable guide).
func planSteps(sn *snapshot, q *wire.Query) (map[*wire.QStep]stepPlan, int) {
	steps := map[*wire.QStep]stepPlan{}
	var path []*wire.QStep
	for st := q.First; st != nil; st = st.Next {
		sp := stepPlan{lists: sn.labelLists(st.Labels)}
		for _, list := range sp.lists {
			sp.est += len(list)
		}
		steps[st] = sp
		path = append(path, st)
	}
	g := sn.st.guide
	if g == nil {
		return steps, 0
	}
	b := &twigBuilder{g: g}
	pruned := 0
	for k, surv := range b.survivors(path) {
		st := path[k]
		if est, full := b.setCount(surv), steps[st].est; est < full {
			pruned += full - est
			steps[st] = stepPlan{lists: b.restrictedLists(surv, st.Labels), est: est}
		}
	}
	return steps, pruned
}

// Predicate ordering: cheap and selective predicates run first so
// later (expensive) ones see fewer candidates. The score is a
// coarse per-candidate work estimate from the synopsis — answers do
// not depend on the order (predicates are conjunctive filters), only
// work does, so any order is safe.
const (
	predScoreExists = 16
	predScoreOr     = 64
	predScoreNot    = 256
	predScorePos    = 1 << 20
)

func predScore(ix *btree.Index, p wire.QPred) int {
	switch v := p.(type) {
	case *wire.PredValue:
		// A residue comparison is one string compare; an indexed one
		// prices by the band occupancy its ranges can touch (the range
		// resolution is shared per query, but selectivity still orders
		// the filter usefully: low occupancy kills candidates fast).
		s := 1 + pathLen(v.Path)
		if len(v.Ranges) > 0 {
			s += occupancy(ix, v.Ranges) / 8
		}
		return s
	case *wire.PredExists:
		return predScoreExists + pathLen(v.Path)
	case *wire.PredAnd:
		return predScore(ix, v.L) + predScore(ix, v.R)
	case *wire.PredOr:
		return predScoreOr + predScore(ix, v.L) + predScore(ix, v.R)
	case *wire.PredNot:
		return predScoreNot + predScore(ix, v.E)
	default: // PredPos: skipped upstream in upper mode, keep last
		return predScorePos
	}
}

func pathLen(st *wire.QStep) int {
	n := 0
	for ; st != nil; st = st.Next {
		n++
	}
	return n
}

// orderPreds computes the evaluation order for every step (main path
// and nested predicate paths), storing a reordered copy only when the
// order actually changes — the query itself is never mutated.
func orderPreds(ix *btree.Index, q *wire.Query, into map[*wire.QStep][]wire.QPred) {
	var walkStep func(s *wire.QStep)
	var walkPred func(p wire.QPred)
	walkStep = func(s *wire.QStep) {
		for ; s != nil; s = s.Next {
			if len(s.Preds) > 1 {
				scores := make([]int, len(s.Preds))
				for i, p := range s.Preds {
					scores[i] = predScore(ix, p)
				}
				if !sort.IntsAreSorted(scores) {
					ord := append([]wire.QPred(nil), s.Preds...)
					sort.SliceStable(ord, func(i, j int) bool {
						return predScore(ix, ord[i]) < predScore(ix, ord[j])
					})
					into[s] = ord
				}
			}
			for _, p := range s.Preds {
				walkPred(p)
			}
		}
	}
	walkPred = func(p wire.QPred) {
		switch v := p.(type) {
		case *wire.PredExists:
			walkStep(v.Path)
		case *wire.PredValue:
			walkStep(v.Path)
		case *wire.PredAnd:
			walkPred(v.L)
			walkPred(v.R)
		case *wire.PredOr:
			walkPred(v.L)
			walkPred(v.R)
		case *wire.PredNot:
			walkPred(v.E)
		}
	}
	walkStep(q.First)
}

// estimateCost turns the plan's cardinality estimates into admission
// cost units — the same formula the pre-planner EstimateFrameCost
// used, now fed from the planner (the first step's candidate count)
// and the value index's band occupancy (instead of exact range
// counts), so admission and planning price queries in one currency.
func estimateCost(sn *snapshot, anchorEst int, preds map[*wire.PredValue]predPlan) int64 {
	occ := 0
	for pred := range preds {
		occ += occupancy(sn.index, pred.Ranges)
	}
	cost := int64(1) + int64(anchorEst+7)/8 + int64(occ+7)/8
	if nb := int64(len(sn.db.Blocks)); nb > 0 && cost > nb+1 {
		cost = nb + 1
	}
	if cost > costCeil {
		cost = costCeil
	}
	return cost
}

// PlanStats are the planner's lifetime counters (stats endpoint).
type PlanStats struct {
	// Twig counts executed queries whose plan pruned at least one
	// interval, Pairwise the rest.
	Twig     int64 `json:"twig"`
	Pairwise int64 `json:"pairwise"`
	// PrunedIntervals is the total number of candidate intervals the
	// synopsis removed from main-path steps before interval joins.
	PrunedIntervals int64 `json:"prunedIntervals"`
}

// PlannerStats snapshots the planner counters.
func (s *Server) PlannerStats() PlanStats {
	return PlanStats{
		Twig:            s.planTwigN.Load(),
		Pairwise:        s.planPairN.Load(),
		PrunedIntervals: s.planPruned.Load(),
	}
}
