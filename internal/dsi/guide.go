package dsi

// The guide is a strong-DataGuide-style structure synopsis over the
// DSI table: every table interval is assigned to exactly one *path
// class* — the equivalence class of intervals reached from a forest
// root through the same sequence of table labels. Two properties make
// it useful to the server's query planner:
//
//   - It is exact at class granularity: an interval's forest parent
//     always lies in the class's parent class, so label-path
//     reachability questions ("can anything under this class have a
//     'reference/source' descendant?") are decidable from the guide
//     alone, without touching a single interval.
//   - It is small: its size is the number of *distinct label paths*
//     of the hosted document, which for real documents is orders of
//     magnitude below the interval count. Walking the whole guide per
//     query is cheap; walking the whole interval table is not.
//
// Grouping does not disturb the guide: a grouped interval carries the
// run's (single) tag label and sits at the run's position in the
// forest, so it lands in the same class its members would have.
//
// The guide is built once per hosted structure. Updates in this
// extension are value-level and structure-preserving, so the guide is
// immutable for the lifetime of the hosted database and can be shared
// by every MVCC snapshot; the per-generation half of the synopsis
// (value-index band occupancy) lives with the snapshot instead.
type Guide struct {
	nodes []GuideNode
	roots []int32
}

// GuideNode is one path class of the guide.
type GuideNode struct {
	// Label is the DSI table label every interval of the class is
	// filed under (encrypted for encrypted tags — the guide sees only
	// what the server sees).
	Label string
	// Parent is the parent class index, -1 for root classes.
	Parent int32
	// Children are the classes whose intervals are forest children of
	// this class's intervals.
	Children []int32
	// Nodes are the class members' node numbers, ascending (a
	// subsequence of the forest's pre-order, so the joins' sorted-list
	// contract holds).
	Nodes []int32
}

// buildGuide derives the path-class synopsis from the forest's parent
// and label columns. It returns nil when some interval is filed under
// more than one table label — then the single-class-per-interval
// invariant the planner's pruning relies on does not hold and callers
// must treat the structure as having no synopsis. (The builder never produces such tables: each node
// contributes its one tag label.)
func buildGuide(f *Forest) *Guide {
	g := &Guide{}
	class := make([]int32, len(f.ivs))
	classIdx := map[[2]int32]int32{} // (parent class, label) -> class
	var counts []int
	// Node numbers are pre-order, so a parent's class exists before
	// any of its children are classified.
	for i, label := range f.label {
		if len(f.labels[label]) != 1 {
			return nil
		}
		parent := int32(-1)
		if p := f.parent[i]; p >= 0 {
			parent = class[p]
		}
		key := [2]int32{parent, label}
		ci, ok := classIdx[key]
		if !ok {
			ci = int32(len(g.nodes))
			g.nodes = append(g.nodes, GuideNode{Label: f.labels[label][0], Parent: parent})
			counts = append(counts, 0)
			classIdx[key] = ci
			if parent < 0 {
				g.roots = append(g.roots, ci)
			} else {
				g.nodes[parent].Children = append(g.nodes[parent].Children, ci)
			}
		}
		class[i] = ci
		counts[ci]++
	}
	// Every class's member list is a capped window of one backing
	// array; pre-order keeps each ascending.
	members, off := make([]int32, len(f.ivs)), 0
	for ci, c := range counts {
		g.nodes[ci].Nodes = members[off : off : off+c]
		off += c
	}
	for i, ci := range class {
		g.nodes[ci].Nodes = append(g.nodes[ci].Nodes, int32(i))
	}
	return g
}

// NumClasses returns the number of path classes (distinct label
// paths) in the guide.
func (g *Guide) NumClasses() int { return len(g.nodes) }

// Node returns the class with index ci.
func (g *Guide) Node(ci int32) *GuideNode { return &g.nodes[ci] }

// Roots returns the root class indexes.
func (g *Guide) Roots() []int32 { return g.roots }

// Count returns the number of intervals in class ci — the planner's
// DSI interval-group cardinality for the class's label path. Grouping
// makes this a lower bound on the node count, which is exactly the
// granularity the server is allowed to see.
func (g *Guide) Count(ci int32) int { return len(g.nodes[ci].Nodes) }
