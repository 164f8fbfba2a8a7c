package server

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
