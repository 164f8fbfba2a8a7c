package server

import (
	"repro/internal/dsi"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Unpruned returns a server over s's current snapshot whose structure
// carries no guide, so every plan keeps the full table lists — the
// pruning-off side of TestPruningOnOffIdentical, and the only way to
// get one. It shares s's epoch and generation, so the two servers'
// answers are comparable byte for byte.
func (s *Server) Unpruned() *Server {
	cur := s.current()
	st := *cur.st
	st.guide = nil
	u := &Server{epoch: s.epoch, caches: newQueryCaches()}
	u.snap.Store(&snapshot{gen: cur.gen, db: cur.db, index: cur.index, st: &st})
	return u
}

// ResidueFact is one residue interval's boot-time record, as
// TestResidueFactsMatchTree reads it.
type ResidueFact struct {
	Node        *xmltree.Node
	Placeholder bool
	HidesBlock  bool
	Val         xpath.Value
}

// ResidueFacts returns the boot-time record of every residue interval.
func (s *Server) ResidueFacts() map[dsi.Interval]ResidueFact {
	f, facts := s.NodeTable()
	out := map[dsi.Interval]ResidueFact{}
	for i, r := range facts {
		if r.Node != nil {
			out[f.Interval(int32(i))] = r
		}
	}
	return out
}

// NodeTable returns the node table New built and the residue fact of
// every node by node number, a zero fact for nodes inside blocks.
func (s *Server) NodeTable() (*dsi.Forest, []ResidueFact) {
	st := s.current().st
	out := make([]ResidueFact, len(st.residue))
	for i, r := range st.residue {
		out[i] = ResidueFact{Node: r.node, Placeholder: r.placeholder, HidesBlock: r.hidesBlock, Val: r.val}
	}
	return st.forest, out
}

// Step applies one query step with the given strictness to the
// ascending context nodes over the step's full table lists, as a
// predicate sub-path step runs, and returns the survivors ascending.
func (s *Server) Step(ctxs []int32, st *wire.QStep, upper bool) []int32 {
	sn := s.current()
	e := s.newExec(sn, &plan{subLists: map[*wire.QStep][][]int32{st: sn.labelLists(st.Labels)}})
	return dedupeSorted(e.step(nil, ctxs, st, upper))
}

// BlockColumn returns the block ID of every node by node number, -1
// for residue nodes.
func (s *Server) BlockColumn() []int32 { return s.current().st.block }
