package server

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dsi"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// Direct unit tests of the three-valued matcher semantics: the main
// path prunes with "possibly matches" (upper), negation flips to
// "certainly matches" (lower), and grouped intervals never cause
// under-selection.

func TestThreeValuedNegationOnEncryptedValues(t *testing.T) {
	c, s := boot(t, "top")
	// Under top everything is in one block: pname='Betty' is only
	// "possibly" satisfiable per patient (block granularity), so
	// not(pname='Betty') must keep every patient (upper(not e) =
	// !lower(e) = true).
	ans := runQuery(t, c, s, "//patient[not(pname='Betty')]")
	if len(ans.Blocks) != 1 {
		t.Errorf("negation under top dropped the block: %d", len(ans.Blocks))
	}
}

func TestThreeValuedNegationOnPlaintext(t *testing.T) {
	c, s := boot(t, "opt")
	// age is plaintext under opt: the comparison is exact, so the
	// negation can prune precisely: only Betty is 35.
	ans := runQuery(t, c, s, "//patient[not(age=35)]")
	if len(ans.Fragments) != 1 {
		t.Errorf("plaintext negation fragments = %d, want 1 (only Matt)", len(ans.Fragments))
	}
}

func TestDoubleNegationKeepsUpper(t *testing.T) {
	c, s := boot(t, "opt")
	// not(not(p)) == upper(p): same pruning as p itself.
	a := runQuery(t, c, s, "//patient[.//disease='leukemia']")
	b := runQuery(t, c, s, "//patient[not(not(.//disease='leukemia'))]")
	if len(a.Fragments) != len(b.Fragments) || len(a.Blocks) != len(b.Blocks) {
		t.Errorf("double negation changed pruning: %d/%d vs %d/%d",
			len(a.Fragments), len(a.Blocks), len(b.Fragments), len(b.Blocks))
	}
}

func TestGroupedSiblingUpperMatch(t *testing.T) {
	c, s := boot(t, "opt")
	// Betty's insurance block groups two adjacent policy elements
	// into ONE interval. following-sibling::policy must still
	// "possibly" match (the server cannot know the group size), so
	// the block ships and the client resolves it exactly.
	ans := runQuery(t, c, s, "//policy[following-sibling::policy]")
	if len(ans.Blocks) == 0 {
		t.Fatalf("grouped-sibling query shipped nothing (under-selection)")
	}
}

func TestPositionalPredicatesNotAppliedServerSide(t *testing.T) {
	c, s := boot(t, "opt")
	// The server must keep every candidate: positions are unreliable
	// at interval granularity, so every //patient anchor ships, inside
	// a fragment that holds its siblings for the client to count.
	all := fragmentIntervals(t, s, runQuery(t, c, s, "//patient"))
	second := fragmentIntervals(t, s, runQuery(t, c, s, "//patient[2]"))
	if len(all) == 0 {
		t.Fatal("//patient shipped no fragment")
	}
	for _, a := range all {
		if !slices.ContainsFunc(second, func(f dsi.Interval) bool { return f.Lo <= a.Lo && a.Hi <= f.Hi }) {
			t.Errorf("server applied positional predicate: anchor %v is in no fragment of %v", a, second)
		}
	}
}

// fragmentIntervals maps each fragment of ans back to the interval of
// the residue node it serializes.
func fragmentIntervals(t *testing.T, s *Server, ans *wire.Answer) []dsi.Interval {
	t.Helper()
	db := s.current().db
	var out []dsi.Interval
	for _, f := range ans.Fragments {
		n := len(out)
		for node, iv := range db.ResidueIntervals {
			if b, err := wire.SerializeFragment(node); err == nil && bytes.Equal(b, f) {
				out = append(out, iv)
				break
			}
		}
		if len(out) == n {
			t.Fatalf("fragment %q serializes no residue node", f)
		}
	}
	return out
}

func TestOrAcrossGranularities(t *testing.T) {
	c, s := boot(t, "opt")
	// One disjunct plaintext-exact, one encrypted-possible.
	ans := runQuery(t, c, s, "//patient[age=35 or .//disease='leukemia']")
	if len(ans.Fragments) != 2 {
		t.Errorf("or-query fragments = %d, want 2 (both patients)", len(ans.Fragments))
	}
}

func TestWildcardStepMatchesEverything(t *testing.T) {
	c, s := boot(t, "opt")
	star := runQuery(t, c, s, "//patient/*")
	if len(star.Fragments)+len(star.Blocks) == 0 {
		t.Fatalf("wildcard matched nothing")
	}
}

func TestSelfAxisLabelCheck(t *testing.T) {
	c, s := boot(t, "opt")
	hit := runQuery(t, c, s, "//patient/self::patient")
	miss := runQuery(t, c, s, "//patient/self::treat")
	if len(hit.Fragments) != 2 {
		t.Errorf("self::patient fragments = %d", len(hit.Fragments))
	}
	if len(miss.Fragments)+len(miss.Blocks) != 0 {
		t.Errorf("self::treat matched %d/%d", len(miss.Fragments), len(miss.Blocks))
	}
}

func TestEmptyRangePredicate(t *testing.T) {
	c, s := boot(t, "opt")
	// An equality on a value outside the encrypted domain yields a
	// range matching nothing; the predicate must fail cleanly.
	ans := runQuery(t, c, s, "//patient[.//disease='nosuchdisease']")
	if len(ans.Fragments)+len(ans.Blocks) != 0 {
		t.Errorf("impossible predicate matched something")
	}
}

func TestPredicateOnlyQueryShapes(t *testing.T) {
	// Query IR built by hand: wildcard first step with an exists
	// predicate — exercises labelLists(nil) and matchFirst.
	_, s := boot(t, "opt")
	q := &wire.Query{First: &wire.QStep{
		Axis: xpath.AxisChild,
		Desc: true,
		Preds: []wire.QPred{
			&wire.PredExists{Path: &wire.QStep{Axis: xpath.AxisChild, Desc: true, Labels: []string{"age"}}},
		},
	}}
	ans, err := s.Execute(q)
	if err != nil {
		t.Fatalf("wildcard query: %v", err)
	}
	if len(ans.Fragments)+len(ans.Blocks) == 0 {
		t.Errorf("wildcard-with-exists matched nothing")
	}
}

// TestUpwardAxesMatchForest checks the self, parent, ancestor and
// ancestor-or-self steps, which walk the node table's parent column,
// against a walk up the tightest strictly containing interval from
// every interval of the hospital document, with no node test and with
// one naming a table label.
func TestUpwardAxesMatchForest(t *testing.T) {
	_, s := boot(t, "opt")
	sn := s.current()
	e := &exec{srv: s, sn: sn}
	f := sn.st.forest
	for _, labels := range [][]string{nil, {"patient"}, {"hospital", "pname"}} {
		for _, axis := range []xpath.Axis{xpath.AxisSelf, xpath.AxisParent, xpath.AxisAncestor, xpath.AxisAncestorOrSelf} {
			st := &wire.QStep{Axis: axis, Labels: labels}
			for ctx := int32(0); ctx < int32(f.Size()); ctx++ {
				path := []dsi.Interval{f.Interval(ctx)}
				for p, ok := scanParentOf(sn.db.Table, path[0]); ok; p, ok = scanParentOf(sn.db.Table, p) {
					path = append(path, p)
				}
				switch axis {
				case xpath.AxisSelf:
					path = path[:1]
				case xpath.AxisParent:
					path = path[1:min(2, len(path))]
				case xpath.AxisAncestor:
					path = path[1:]
				}
				var want []dsi.Interval
				for _, iv := range path {
					if labels == nil || slices.ContainsFunc(labels, func(l string) bool {
						return slices.Contains(sn.db.Table.ByTag[l], iv)
					}) {
						want = append(want, iv)
					}
				}
				var got []dsi.Interval
				for _, n := range e.stepFrom(nil, ctx, st, nil, true) {
					got = append(got, f.Interval(n))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v::%v from %v: %v, want %v", axis, labels, f.Interval(ctx), got, want)
				}
			}
		}
	}
}

// scanParentOf returns the tightest table interval strictly containing
// iv, by a scan of the whole table.
func scanParentOf(t *dsi.Table, iv dsi.Interval) (dsi.Interval, bool) {
	var p dsi.Interval
	found := false
	for _, ivs := range t.ByTag {
		for _, c := range ivs {
			if c.StrictlyContains(iv) && (!found || p.StrictlyContains(c)) {
				p, found = c, true
			}
		}
	}
	return p, found
}
