package dsi

// Batched structural joins over sorted interval lists — the
// "standard structural join algorithms" the paper's server runs
// (§6.2, citing Al-Khalifa et al.'s sort-merge joins). Where the
// per-context probe costs O(|ctx| · log n), these merge the whole
// context set against a label's candidate list in one pass:
// O(|ctx| + |cand| + answer).

// Outermost returns the maximal intervals of a sorted laminar list:
// every input interval is contained in exactly one output interval,
// and the outputs are disjoint and ascending. Containment in the
// input set is then equivalent to containment in one of the outputs.
func Outermost(ivs []Interval) []Interval {
	var out []Interval
	for _, iv := range ivs {
		if len(out) > 0 && out[len(out)-1].Contains(iv) {
			continue
		}
		out = append(out, iv)
	}
	return out
}

// DescendantJoin returns the candidates strictly inside at least one
// context interval. Both lists must be sorted (SortIntervals order);
// the result preserves candidate order. This is the batched form of
// the descendant axis.
func DescendantJoin(ctxs, cands []Interval) []Interval {
	anc := Outermost(ctxs)
	var out []Interval
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

// ChildJoin returns the candidates whose forest parent is one of the
// context intervals. cands must be sorted; ctxs may be in any order.
func ChildJoin(f *Forest, ctxs, cands []Interval) []Interval {
	inCtx := make(map[Interval]bool, len(ctxs))
	for _, c := range ctxs {
		inCtx[c] = true
	}
	var out []Interval
	for _, c := range cands {
		if p, ok := f.ParentOf(c); ok && inCtx[p] {
			out = append(out, c)
		}
	}
	return out
}
