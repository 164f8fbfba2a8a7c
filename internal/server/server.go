// Package server implements the untrusted side of Figure 1: the
// service provider hosting the (partially) encrypted database and
// its metadata. The server answers translated queries (§6.2) purely
// from what the client uploaded — DSI intervals, encrypted tags,
// the OPESS value index and the plaintext residue — and never holds
// a key.
package server

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/authtree"
	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Server hosts one database under MVCC snapshot reads: every applied
// update publishes a new immutable snapshot (copy-on-write block map
// and value index over the shared structure), and queries pin one
// snapshot for their whole lifetime. Readers never take a lock —
// Execute, cost estimation and the stats
// accessors all run against whatever snapshot was current when they
// started, so a writer building generation N+1 never stalls them.
// Writers serialize among themselves on wmu and commit by swapping
// the snapshot pointer; the "write lock" has shrunk to that swap.
type Server struct {
	// snap is the current committed snapshot. Load pins a generation;
	// Store (under wmu) publishes the next one. Old snapshots stay
	// alive exactly as long as some in-flight reader pins them, then
	// the garbage collector retires them — there is no explicit free.
	snap atomic.Pointer[snapshot]
	// wmu serializes snapshot publication: ApplyUpdateBatch and
	// RestoreGeneration build the candidate off to the side under it,
	// so two writers can never interleave their copy-on-write work.
	wmu sync.Mutex

	// Planner counters for the stats endpoint: executed queries whose
	// plan pruned (twig) or did not (pairwise), and intervals pruned.
	planTwigN  atomic.Int64
	planPairN  atomic.Int64
	planPruned atomic.Int64

	// epoch is the boot nonce answers echo alongside the generation,
	// so clients can tell a restarted server from a generation
	// rollback. Immutable after New.
	epoch uint64
	// caches carries compiled plans, range resolutions and whole
	// answers across queries, keyed under (epoch, generation); see
	// cache.go. cachingOff forces every query onto the cold path;
	// tests that must exercise the matcher itself flip it via
	// SetCaching.
	caches     *queryCaches
	cachingOff atomic.Bool
}

// structure is the part of the hosted state that never changes after
// New: updates in this extension are value-level and
// structure-preserving (see wire.Update) and replace only blocks and
// index bands, never the residue, so the node table, the residue
// facts and the block column are built once and shared by every
// snapshot.
type structure struct {
	// forest is the node table (dsi.Forest): every table interval
	// numbered in pre-order, with its parent, last descendant and
	// labels, and each table label's members. Inside the server a node
	// is its number; an interval is looked up only here, at boot, and
	// read back only for an answer's fragments.
	forest *dsi.Forest
	// residue holds the decided facts of every residue node by node
	// number (placeholders carry their block root's interval); a fact
	// with a nil node marks a node inside a block.
	residue []residueFact
	// block holds, by node number, the ID of the encryption block the
	// node lies in (its block representative's subtree), -1 for a
	// node of the plaintext residue.
	block []int32
	// guide is the structural half of the synopsis: the strong
	// DataGuide of path classes the planner's twig matcher prunes
	// against (see synopsis.go and planner.go). nil when the table
	// yields no usable guide — plans then keep the full table lists.
	guide *dsi.Guide
}

// snapshot is one committed generation of the hosted database. It is
// immutable once published: the db holds this generation's own block
// slice header (ciphertext byte slices are shared across generations —
// updates replace whole slices, never mutate bytes) and no index
// entries; index is the generation's value index, one canonical run
// per OPESS band, which the matcher, the probe, the planner and the
// Merkle prover all read; st is the shared immutable structure.
// Readers that pinned a snapshot may use every part of it, including
// returned block ciphertexts, for as long as they like — no later
// update can reach into it.
type snapshot struct {
	gen   uint64
	db    *wire.HostedDB
	index *btree.Index
	st    *structure

	// authMu guards the lazily built Merkle prover for THIS
	// generation. Once built the AuthState itself is immutable and
	// proof generation needs no lock; updates seed the next
	// snapshot's state incrementally from this one when it exists.
	authMu sync.Mutex
	auth   *wire.AuthState
}

// residueFact is what a query needs to know about one residue
// interval's node, decided once at boot: the residue never changes
// after upload, so neither does any of this.
type residueFact struct {
	node *xmltree.Node
	// placeholder marks a node standing for an encryption block.
	placeholder bool
	// hidesBlock marks a node with a placeholder in its subtree (itself
	// included): its visible string-value is incomplete.
	hidesBlock bool
	// val is the node's string-value decoded for comparison, set only
	// when hidesBlock is not.
	val xpath.Value
}

// decideResidue fills st.residue in one post-order pass over the
// residue tree and returns what n adds to its ancestors' string-value
// (its text, "" for an attribute) and whether n hides a block. A
// node's string-value is its children's text concatenated, so no node
// is walked twice; a leaf reuses its text's string (strings.Join copies
// only two or more), and nothing is concatenated for a node that hides
// a block. parts is the pass's scratch stack of child texts.
func (st *structure) decideResidue(n *xmltree.Node, ivs map[*xmltree.Node]dsi.Interval, parts *[]string) (string, bool) {
	var text string
	f := residueFact{node: n}
	switch {
	case n.Kind == xmltree.Text:
		return n.Value, false
	case n.Kind == xmltree.Attribute:
		f.val = xpath.DecodeValue(n.Value)
	case isPlaceholder(n):
		f.placeholder, f.hidesBlock = true, true
	default:
		mark := len(*parts)
		for _, c := range n.Children {
			t, hides := st.decideResidue(c, ivs, parts)
			f.hidesBlock = f.hidesBlock || hides
			if t != "" && !f.hidesBlock {
				*parts = append(*parts, t)
			}
		}
		if !f.hidesBlock {
			text = strings.Join((*parts)[mark:], "")
			f.val = xpath.DecodeValue(text)
		}
		*parts = (*parts)[:mark]
	}
	if iv, ok := ivs[n]; ok {
		if i := st.forest.Num(iv); i >= 0 { // an interval not in the table has no node
			st.residue[i] = f
		}
	}
	return text, f.hidesBlock
}

// New boots a server from an uploaded database: it buckets the value
// index into its band runs, builds the node table the structural
// joins and the planner read, decides the residue facts value predicates read,
// and publishes generation 1. The snapshot takes
// its own Blocks slice header and index, so an owner mutating the
// uploaded HostedDB in place (the in-process mirror does) can never
// tear a pinned reader.
func New(db *wire.HostedDB) *Server {
	forest := dsi.BuildForest(db.Table)
	st := &structure{
		forest:  forest,
		residue: make([]residueFact, forest.Size()),
		guide:   forest.Guide(),
	}
	if db.Residue != nil && db.Residue.Root != nil {
		st.decideResidue(db.Residue.Root, db.ResidueIntervals, new([]string))
	}
	st.block = make([]int32, forest.Size())
	for i := range st.block {
		st.block[i] = -1
	}
	for id, rep := range db.BlockReps {
		if r := forest.Num(rep); r >= 0 { // a representative not in the table has no subtree
			for i := r; i <= forest.End(r); i++ {
				st.block[i] = int32(id)
			}
		}
	}

	s := &Server{
		epoch:  newEpoch(),
		caches: newQueryCaches(),
	}
	s.snap.Store(&snapshot{gen: 1, db: snapshotDB(db), index: btree.NewIndex(db.IndexEntries), st: st})
	return s
}

// snapshotDB gives a snapshot its own view of the hosted database: a
// fresh Blocks slice header over the shared (immutable) ciphertexts,
// so neither owner-side mirror writes nor the next generation's
// copy-on-write can reach a pinned reader. The index entries live in
// the snapshot's index, not here.
func snapshotDB(db *wire.HostedDB) *wire.HostedDB {
	cp := *db
	cp.Blocks = append([][]byte(nil), db.Blocks...)
	cp.IndexEntries = nil
	return &cp
}

// current pins the committed snapshot. The returned snapshot is
// immutable; callers may use it for their whole lifetime.
func (s *Server) current() *snapshot { return s.snap.Load() }

// CurrentDB returns the current snapshot's view of the hosted
// database, its IndexEntries the index's bands concatenated in
// canonical order. The persistence layer reads it instead of the
// upload object, which goes stale the moment the first copy-on-write
// update commits. Only the entry list is fresh; callers must not write
// to the rest.
func (s *Server) CurrentDB() *wire.HostedDB {
	sn := s.current()
	cp := *sn.db
	cp.IndexEntries = sn.index.Entries()
	return &cp
}

// IndexSize exposes the number of value-index entries.
func (s *Server) IndexSize() int { return s.current().index.Len() }

// NumBlocks returns the number of hosted encryption blocks. It pins
// the current snapshot like every other reader — the pre-MVCC
// version read len(s.db.Blocks) with no synchronization at all,
// racing ApplyUpdateBatch's block replacement.
func (s *Server) NumBlocks() int { return len(s.current().db.Blocks) }

// BlockCiphertext returns one hosted block by ID (for aggregate
// answers that ship a single block). The returned bytes belong to
// the pinned snapshot and are immutable: an update that replaces
// this block publishes a new snapshot with a new slice, it never
// writes into this one — holding the bytes across updates is safe.
func (s *Server) BlockCiphertext(id int) ([]byte, bool) {
	sn := s.current()
	if id < 0 || id >= len(sn.db.Blocks) {
		return nil, false
	}
	return sn.db.Blocks[id], true
}

// authState returns the Merkle prover state for this snapshot's
// generation, building it on first use. The built state is immutable
// and shared by every prover on this generation.
func (sn *snapshot) authState() (*wire.AuthState, error) {
	sn.authMu.Lock()
	defer sn.authMu.Unlock()
	if sn.auth == nil {
		st, err := wire.NewAuthState(sn.db, sn.index)
		if err != nil {
			return nil, fmt.Errorf("server: auth state: %w", err)
		}
		sn.auth = st
	}
	return sn.auth, nil
}

// authState exposes the current snapshot's prover (tests use it).
func (s *Server) authState() (*wire.AuthState, error) {
	return s.current().authState()
}

// AuthRoot exposes the server's committed Merkle root (for startup
// cross-checks against a client-supplied root and for tests).
func (s *Server) AuthRoot() (authtree.Digest, error) {
	st, err := s.current().authState()
	if err != nil {
		return authtree.Digest{}, err
	}
	return st.Root(), nil
}

// probe answers a MIN/MAX probe (§6.4): the block holding the
// smallest (Max false) or largest indexed ciphertext within [Lo, Hi],
// among tied keys the lowest (MIN) or highest (MAX) block ID, or no
// block when the range holds no entry. Order preservation makes this a
// single index probe; the server learns which block holds the extreme
// value but not the value itself. With wantProof the answer carries the
// probed bands' runs (wire.AuthState.ProveProbe), which also makes
// emptiness provable.
func (sn *snapshot) probe(p *wire.Probe, wantProof bool) (*wire.Answer, error) {
	if p.Hi < p.Lo {
		return nil, fmt.Errorf("server: probe: inverted range")
	}
	var e btree.Entry
	var found bool
	if p.Max {
		e, found = sn.index.Last(p.Lo, p.Hi)
	} else {
		e, found = sn.index.First(p.Lo, p.Hi)
	}
	ans := &wire.Answer{}
	if found {
		if e.BlockID < 0 || e.BlockID >= len(sn.db.Blocks) {
			return nil, fmt.Errorf("server: probe entry references missing block %d", e.BlockID)
		}
		ans.BlockIDs, ans.Blocks = []int{e.BlockID}, [][]byte{sn.db.Blocks[e.BlockID]}
	}
	if !wantProof {
		return ans, nil
	}
	st, err := sn.authState()
	if err != nil {
		return nil, err
	}
	if ans.Proof, err = st.ProveProbe(ans, p); err != nil {
		return nil, fmt.Errorf("server: probe proof: %w", err)
	}
	return ans, nil
}

// Execute answers a translated query (§6.2): (1) each query node is
// labeled with its DSI intervals, (2) structural joins prune them,
// (3) value constraints consult the value index and prune further, (4)
// the anchors — surviving bindings of the query's first step —
// determine the blocks and plaintext fragments returned. A query
// carrying a Probe is instead one value-index probe (§6.4, see probe).
//
// Repeated queries are served from the generation-keyed caches: an
// identical frame at the same db generation returns the cached
// answer envelope without touching the matcher, and a previously
// seen frame reuses its compiled plan. The whole lookup-or-execute
// runs against one pinned snapshot, so the generation read, the
// execution and the cache insert all see one db state — the
// generation-keyed cache rejects inserts from a reader whose pinned
// generation an update has meanwhile superseded, so a pre-update
// result can never be cached as post-update.
func (s *Server) Execute(q *wire.Query) (*wire.Answer, error) {
	if q == nil || (q.First == nil && q.Probe == nil) {
		return nil, fmt.Errorf("server: empty query")
	}
	frame, err := wire.MarshalQuery(q)
	if err != nil {
		return nil, fmt.Errorf("server: fingerprint query: %w", err)
	}
	return s.executeFrame(context.Background(), frame, q)
}

// ExecuteFrameCtx is Execute for a marshaled query frame (the remote
// service's path; on a plan-cache hit the frame is not even
// re-parsed) under a caller context: the pipeline checks for
// cancellation between its stages (after the anchor match, before
// each anchor's survival check, before assembly, before the proof), so
// a request whose caller deadline passed stops burning matcher time
// instead of computing an answer nobody will read. The check
// granularity is a stage, not an instruction — a lone anchor's chain
// match runs to completion — which bounds wasted work without
// peppering the hot loops.
func (s *Server) ExecuteFrameCtx(ctx context.Context, frame []byte) (*wire.Answer, error) {
	return s.executeFrame(ctx, frame, nil)
}

func (s *Server) executeFrame(ctx context.Context, frame []byte, parsed *wire.Query) (*wire.Answer, error) {
	// A caller that is already out of budget gets nothing — not even
	// the parse; the answer would be thrown away regardless.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Pin one snapshot for the whole query: lookup, plan, match,
	// assemble and prove all see this generation, no matter how many
	// updates commit while we run.
	sn := s.current()
	fp := s.fingerprint(frame)
	if fp != "" {
		if v, ok := s.caches.answers.Get(s.epoch, sn.gen, fp); ok {
			return copyAnswer(v.(*wire.Answer)), nil
		}
	}
	pl, err := s.planForFrame(sn, frame, fp, parsed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ans *wire.Answer
	if pl.q.Probe != nil {
		ans, err = sn.probe(pl.q.Probe, pl.q.WantProof)
	} else {
		ans, err = s.executePlan(ctx, sn, pl)
	}
	if err != nil {
		return nil, err
	}
	ans.Epoch, ans.Generation = s.epoch, sn.gen
	if fp != "" {
		// A stale reader's insert (pinned generation already
		// superseded) is rejected by the cache's monotonic policy —
		// the answer itself is still correct for the caller.
		s.caches.answers.Put(s.epoch, sn.gen, fp, ans, ans.ByteSize())
	}
	return copyAnswer(ans), nil
}

// executePlan runs one compiled plan against one pinned snapshot,
// abandoning it between stages if ctx dies.
func (s *Server) executePlan(ctx context.Context, sn *snapshot, pl *plan) (*wire.Answer, error) {
	q := pl.q
	e := s.newExec(sn, pl)
	if pl.pruned > 0 {
		s.planTwigN.Add(1)
		s.planPruned.Add(int64(pl.pruned))
	} else {
		s.planPairN.Add(1)
	}
	anchors := e.matchFirst(q.First)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var surviving []int32
	if q.First.Next == nil {
		surviving = make([]int32, len(anchors))
		for i, a := range anchors {
			surviving[i] = sn.lift(a, pl.lift)
		}
	} else {
		// Each anchor evaluates the rest of the main path on its own.
		// A dead context stops before the next anchor rather than
		// interrupting one mid-chain.
		for _, a := range anchors {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if len(e.matchChain([]int32{a}, q.First.Next, true)) > 0 {
				surviving = append(surviving, sn.lift(a, pl.lift))
			}
		}
	}
	surviving = sn.dedupeOutermost(surviving)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ans, fragIvs, err := sn.assemble(surviving)
	if err != nil {
		return nil, err
	}
	ans.PlanStrategy, ans.PlanCost = pl.strategy(), pl.cost
	if q.WantProof {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := sn.authState()
		if err != nil {
			return nil, err
		}
		proof, err := st.ProveAnswer(ans, fragIvs)
		if err != nil {
			return nil, fmt.Errorf("server: answer proof: %w", err)
		}
		ans.Proof = proof
	}
	return ans, nil
}

// lift walks levels up the node table's parent column, stopping at a
// root; it widens the anchor when the query can escape the anchor
// subtree via parent or sibling axes.
func (sn *snapshot) lift(n int32, levels int) int32 {
	f := sn.st.forest
	for ; levels > 0 && f.Parent(n) >= 0; levels-- {
		n = f.Parent(n)
	}
	return n
}

// liftDepth computes how many levels above the first-step match the
// answer fragment must start so that every node the query (or its
// predicates) can visit is inside the fragment. Downward axes need
// nothing; parent and sibling axes escape one level each.
func liftDepth(q *wire.Query) int {
	depth, minDepth := 0, 0
	walkChain(q.First.Next, &depth, &minDepth)
	// Predicates of the first step can also escape.
	d0, m0 := 0, 0
	for _, p := range q.First.Preds {
		walkPred(p, d0, &m0)
	}
	if m0 < minDepth {
		minDepth = m0
	}
	if minDepth < 0 {
		return -minDepth
	}
	return 0
}

func walkChain(st *wire.QStep, depth, minDepth *int) {
	for ; st != nil; st = st.Next {
		switch st.Axis {
		case xpath.AxisParent:
			*depth--
			if *depth < *minDepth {
				*minDepth = *depth
			}
		case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
			// Unbounded upward escape: lift the anchor to the root.
			*depth -= 1 << 20
			if *depth < *minDepth {
				*minDepth = *depth
			}
		case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
			// A sibling sits at the same depth, but containing it
			// requires the shared parent one level up.
			if *depth-1 < *minDepth {
				*minDepth = *depth - 1
			}
		case xpath.AxisSelf:
			// depth unchanged
		default: // child, descendant, attribute: strictly downward
			*depth++
		}
		for _, p := range st.Preds {
			walkPred(p, *depth, minDepth)
		}
	}
}

func walkPred(p wire.QPred, depth int, minDepth *int) {
	switch v := p.(type) {
	case *wire.PredExists:
		d := depth
		walkChain(v.Path, &d, minDepth)
	case *wire.PredValue:
		d := depth
		walkChain(v.Path, &d, minDepth)
	case *wire.PredAnd:
		walkPred(v.L, depth, minDepth)
		walkPred(v.R, depth, minDepth)
	case *wire.PredOr:
		walkPred(v.L, depth, minDepth)
		walkPred(v.R, depth, minDepth)
	case *wire.PredNot:
		walkPred(v.E, depth, minDepth)
	case *wire.PredPos:
		// A position counts among the node's siblings, so the
		// fragment must hold their shared parent one level up.
		if depth-1 < *minDepth {
			*minDepth = depth - 1
		}
	}
}

// assemble builds the answer for the surviving anchors: plaintext
// anchors ship their residue fragment plus every block referenced
// inside it; encrypted anchors ship their containing block. The
// second result gives each fragment's DSI interval (parallel to
// Fragments), which the Merkle prover needs to locate the committed
// leaves: here, and only here, a matched node becomes an interval.
// Fragment bytes come from wire.SerializeFragment — the same
// canonical serialization the auth leaves commit to. Shipped block
// slices alias the snapshot's immutable block table (see
// BlockCiphertext for the aliasing argument).
func (sn *snapshot) assemble(anchors []int32) (*wire.Answer, []dsi.Interval, error) {
	ans := &wire.Answer{}
	var fragIvs []dsi.Interval
	blockSet := map[int]bool{}
	for _, n := range anchors {
		if bid := sn.st.block[n]; bid >= 0 {
			blockSet[int(bid)] = true
			continue
		}
		a := sn.st.forest.Interval(n)
		r := &sn.st.residue[n]
		if r.node == nil {
			// A grouped interval outside every block cannot occur:
			// grouping only happens inside blocks.
			return nil, nil, fmt.Errorf("server: anchor interval %v has no residue node", a)
		}
		frag, err := wire.SerializeFragment(r.node)
		if err != nil {
			return nil, nil, fmt.Errorf("server: serialize fragment: %w", err)
		}
		ans.Fragments = append(ans.Fragments, frag)
		fragIvs = append(fragIvs, a)
		// The blocks to ship are the placeholders in the bytes being
		// shipped, read the way the verifier and the client read them.
		if err := wire.PlaceholderIDs(frag, func(id, _, _ int) { blockSet[id] = true }); err != nil {
			return nil, nil, fmt.Errorf("server: fragment %v: %w", a, err)
		}
	}
	ids := make([]int, 0, len(blockSet))
	for id := range blockSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ans.BlockIDs = append(ans.BlockIDs, id)
		ans.Blocks = append(ans.Blocks, sn.db.Blocks[id])
	}
	return ans, fragIvs, nil
}

// dedupeOutermost keeps only anchors not contained in another anchor
// (their fragments subsume the inner ones), ascending, in place.
func (sn *snapshot) dedupeOutermost(anchors []int32) []int32 {
	slices.Sort(anchors)
	return sn.st.forest.Outermost(anchors)
}
