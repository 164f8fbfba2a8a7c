package client

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// refPostProcessFull is PostProcessFull as it stood before the answer
// was built in one pass: every fragment spliced into a byte copy with
// its placeholders replaced by the decrypted blocks (each envelope head
// rewritten to carry its block ID), all parts concatenated under the
// synthetic root and parsed once, and the parsed tree rewritten
// (envelopes unwrapped, decoys stripped, <_attr> wrappers turned into
// attributes, attributes moved before element children). The assembly
// equivalence tests hold the one-pass build to it.
func refPostProcessFull(c *Client, q *xpath.Path, ans *wire.Answer, blocks map[int][]byte) (*PostResult, error) {
	parts := make([][]byte, 0, len(ans.Fragments))
	referenced := map[int]bool{}
	for _, frag := range ans.Fragments {
		spliced, err := refSplice(frag, blocks, referenced)
		if err != nil {
			return nil, err
		}
		parts = append(parts, spliced)
	}
	for _, id := range ans.BlockIDs {
		if referenced[id] {
			continue
		}
		pt, ok := blocks[id]
		if !ok {
			return nil, fmt.Errorf("client: answer references undecrypted block %d", id)
		}
		parts = append(parts, refAppendAnnotated(nil, pt, id))
	}
	if len(parts) == 0 {
		doc := xmltree.NewDocument(xmltree.NewElement(c.rootTag))
		return &PostResult{Doc: doc, BlockOf: map[*xmltree.Node]int{}}, nil
	}
	prov := map[*xmltree.Node]int{}
	doc, err := refAssemble(c, parts, prov)
	if err != nil {
		return nil, err
	}
	return &PostResult{Nodes: xpath.Evaluate(doc, q), Doc: doc, BlockOf: prov}, nil
}

func refAppendAnnotated(dst, pt []byte, id int) []byte {
	head := "<" + wire.BlockWrapTag + ">"
	if !bytes.HasPrefix(pt, []byte(head)) {
		return append(dst, pt...)
	}
	dst = append(dst, "<"+wire.BlockWrapTag+` id="`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, `">`...)
	return append(dst, pt[len(head):]...)
}

func refSplice(fragment []byte, blocks map[int][]byte, used map[int]bool) ([]byte, error) {
	var out []byte
	copied, missing := 0, -1
	err := wire.PlaceholderIDs(fragment, func(id, start, end int) {
		pt, ok := blocks[id]
		if !ok {
			if missing < 0 {
				missing = id
			}
			return
		}
		out = append(out, fragment[copied:start]...)
		out = refAppendAnnotated(out, pt, id)
		used[id] = true
		copied = end
	})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if missing >= 0 {
		return nil, fmt.Errorf("client: fragment references undecrypted block %d", missing)
	}
	if out == nil {
		return fragment, nil
	}
	return append(out, fragment[copied:]...), nil
}

func refAssemble(c *Client, parts [][]byte, prov map[*xmltree.Node]int) (*xmltree.Document, error) {
	combined := parts[0]
	wrapped := len(parts) != 1 || refTopTag(parts[0]) != c.rootTag
	if wrapped {
		combined = []byte("<" + c.rootTag + ">" + string(bytes.Join(parts, nil)) + "</" + c.rootTag + ">")
	}
	parsed, err := xmltree.ParseCompact(combined)
	if err != nil {
		return nil, fmt.Errorf("client: reassemble answer: %w", err)
	}
	root, err := refResolveTree(parsed.Root, prov)
	if err != nil {
		return nil, err
	}
	if root.Kind != xmltree.Element {
		wrapEl := xmltree.NewElement(c.rootTag)
		wrapEl.AppendChild(root)
		root = wrapEl
	}
	if wrapped && root.Tag == c.rootTag && len(root.Children) == 1 {
		if ch := root.Children[0]; ch.Kind == xmltree.Element && ch.Tag == c.rootTag {
			ch.Parent = nil
			root = ch
		}
	}
	return xmltree.NewDocument(root), nil
}

func refTopTag(part []byte) string {
	if len(part) < 2 || part[0] != '<' {
		return ""
	}
	for i := 1; i < len(part); i++ {
		switch part[i] {
		case ' ', '>', '/', '\n', '\t':
			return string(part[1:i])
		}
	}
	return ""
}

func refResolveTree(n *xmltree.Node, prov map[*xmltree.Node]int) (*xmltree.Node, error) {
	if n.Kind == xmltree.Element && n.Tag == wire.BlockWrapTag {
		idStr, hasID := n.Attr("id")
		content, err := refUnwrapBlock(n)
		if err != nil {
			return nil, err
		}
		if prov != nil && hasID {
			if id, err := strconv.Atoi(idStr); err == nil {
				prov[content] = id
			}
		}
		if content.Kind != xmltree.Element {
			return content, nil
		}
		return refResolveTree(content, nil)
	}
	if n.Kind == xmltree.Element && n.Tag == wire.AttrWrapTag {
		name, _ := n.Attr("name")
		return xmltree.NewAttribute(name, n.LeafValue()), nil
	}
	if n.Kind != xmltree.Element {
		return n, nil
	}
	for i, ch := range n.Children {
		r, err := refResolveTree(ch, prov)
		if err != nil {
			return nil, err
		}
		if r != ch {
			r.Parent = n
			n.Children[i] = r
		}
	}
	var attrs, rest []*xmltree.Node
	for _, ch := range n.Children {
		if ch.Kind == xmltree.Attribute {
			attrs = append(attrs, ch)
		} else {
			rest = append(rest, ch)
		}
	}
	if len(attrs) > 0 {
		n.Children = append(attrs, rest...)
	}
	return n, nil
}

func refUnwrapBlock(blk *xmltree.Node) (*xmltree.Node, error) {
	kept := blk.Children[:0]
	for _, ch := range blk.Children {
		if ch.Kind == xmltree.Element && ch.Tag == wire.DecoyTag {
			continue
		}
		kept = append(kept, ch)
	}
	blk.Children = kept
	elems := blk.ElementChildren()
	if len(elems) != 1 {
		return nil, fmt.Errorf("client: block envelope holds %d elements, want 1", len(elems))
	}
	content := elems[0]
	content.Parent = nil
	if content.Tag == wire.AttrWrapTag {
		name, _ := content.Attr("name")
		return xmltree.NewAttribute(name, content.LeafValue()), nil
	}
	return content, nil
}

// samePostResult reports how got differs from want, the reference's
// result: the serialized tree, every node's kind, tag, value and
// preorder ID, the result nodes (by ID), and the block provenance (by
// block ID and node path).
func samePostResult(got, want *PostResult) error {
	if g, w := got.Doc.String(), want.Doc.String(); g != w {
		return fmt.Errorf("assembled\n %s\nwant\n %s", g, w)
	}
	if got.Doc.Size() != want.Doc.Size() {
		return fmt.Errorf("%d nodes, want %d", got.Doc.Size(), want.Doc.Size())
	}
	for i, g := range got.Doc.Nodes() {
		w := want.Doc.NodeByID(i)
		if g.ID != i || g.Kind != w.Kind || g.Tag != w.Tag || g.Value != w.Value || g.Path() != w.Path() {
			return fmt.Errorf("node %d in document order is %s (ID %d); the reference has %s", i, g.Path(), g.ID, w.Path())
		}
	}
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d result nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		if got.Nodes[i].ID != want.Nodes[i].ID {
			return fmt.Errorf("result %d is node %d, want %d", i, got.Nodes[i].ID, want.Nodes[i].ID)
		}
	}
	provOf := func(r *PostResult) map[string]int {
		out := make(map[string]int, len(r.BlockOf))
		for n, id := range r.BlockOf {
			out[fmt.Sprintf("%d@%d:%s", id, n.ID, n.Path())] = id
		}
		return out
	}
	g, w := provOf(got), provOf(want)
	if len(g) != len(w) || len(got.BlockOf) != len(want.BlockOf) {
		return fmt.Errorf("provenance %v, want %v", g, w)
	}
	for k := range w {
		if _, ok := g[k]; !ok {
			return fmt.Errorf("provenance %v, want %v", g, w)
		}
	}
	return nil
}
