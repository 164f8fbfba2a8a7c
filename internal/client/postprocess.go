package client

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// DecryptBlocks decrypts the answer's encrypted blocks, keyed by
// block ID. The result is the plaintext <_blk> envelope bytes of
// each block; parsing and decoy-stripping happen in PostProcess.
// This is the pure decryption cost the experiments measure
// separately (§7.2). Blocks decrypt in answer order on the caller's
// goroutine; the first failure is returned.
func (c *Client) DecryptBlocks(ans *wire.Answer) (map[int][]byte, error) {
	out := make(map[int][]byte, len(ans.Blocks))
	for i, blk := range ans.Blocks {
		pt, err := c.keys.DecryptBlock(blk)
		if err != nil {
			return nil, fmt.Errorf("client: block %d: %w", ans.BlockIDs[i], err)
		}
		out[ans.BlockIDs[i]] = pt
	}
	return out, nil
}

// PostResult is the outcome of answer reconstruction: the query's
// result nodes, the reassembled document owning them, and the
// provenance map from each decrypted block's content root back to
// its block ID (the update machinery edits blocks through it).
type PostResult struct {
	Nodes   []*xmltree.Node
	Doc     *xmltree.Document
	BlockOf map[*xmltree.Node]int
}

// PostProcess reconstructs the plaintext answer — splicing decrypted
// block bytes into their placeholders, parsing once, stripping
// decoys and unwrapping envelopes — and applies the original query Q
// to the reassembled document, yielding exactly Q(D)'s matches
// within the answer (§6.4). It returns the result nodes and the
// reconstructed document that owns them.
func (c *Client) PostProcess(q *xpath.Path, ans *wire.Answer, blocks map[int][]byte) ([]*xmltree.Node, *xmltree.Document, error) {
	res, err := c.PostProcessFull(q, ans, blocks)
	if err != nil {
		return nil, nil, err
	}
	return res.Nodes, res.Doc, nil
}

// PostProcessFull is PostProcess with block provenance. Fragments
// are spliced in answer order into one set of used blocks; the
// single combined parse in assemble then consumes the parts in that
// order.
func (c *Client) PostProcessFull(q *xpath.Path, ans *wire.Answer, blocks map[int][]byte) (*PostResult, error) {
	parts := make([][]byte, 0, len(ans.Fragments))
	referenced := map[int]bool{}
	for _, frag := range ans.Fragments {
		spliced, err := c.splice(frag, blocks, referenced)
		if err != nil {
			return nil, err
		}
		parts = append(parts, spliced)
	}
	// Blocks matched directly (the anchor itself lay inside an
	// encrypted block) become answer parts of their own.
	for _, id := range ans.BlockIDs {
		if referenced[id] {
			continue
		}
		pt, ok := blocks[id]
		if !ok {
			return nil, fmt.Errorf("client: answer references undecrypted block %d", id)
		}
		parts = append(parts, appendAnnotated(nil, pt, id))
	}

	// An empty answer is the server's proof that no anchor can match
	// (its execution keeps every *possible* match). Re-applying Q to
	// a fabricated empty root would resurrect matches for queries the
	// synthetic shell happens to satisfy — e.g. a negated predicate
	// on the document root ("//site[not(x)]": the shell has no x) —
	// so short-circuit instead of evaluating against scaffolding.
	if len(parts) == 0 {
		doc := xmltree.NewDocument(xmltree.NewElement(c.rootTag))
		return &PostResult{Doc: doc, BlockOf: map[*xmltree.Node]int{}}, nil
	}

	prov := map[*xmltree.Node]int{}
	doc, err := c.assemble(parts, prov)
	if err != nil {
		return nil, err
	}
	return &PostResult{Nodes: xpath.Evaluate(doc, q), Doc: doc, BlockOf: prov}, nil
}

// appendAnnotated appends a decrypted block to dst with its <_blk>
// envelope head rewritten to carry the block ID, so provenance
// survives the combined parse.
func appendAnnotated(dst, pt []byte, id int) []byte {
	head := "<" + wire.BlockWrapTag + ">"
	if !bytes.HasPrefix(pt, []byte(head)) {
		return append(dst, pt...)
	}
	dst = append(dst, "<"+wire.BlockWrapTag+` id="`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, `">`...)
	return append(dst, pt[len(head):]...)
}

// splice replaces every <EncBlock id="N".../> placeholder in a
// fragment with the plaintext bytes of block N, recording which
// blocks were used. Blocks never contain placeholders (blocks are
// not nested), so one pass suffices.
func (c *Client) splice(fragment []byte, blocks map[int][]byte, used map[int]bool) ([]byte, error) {
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
		if out == nil {
			out = make([]byte, 0, len(fragment)*2)
		}
		out = append(out, fragment[copied:start]...)
		out = appendAnnotated(out, pt, id)
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

// assemble parses the spliced parts (one fast parse over the whole
// answer), resolves envelopes and decoys, and roots the result in a
// document the original query can run against. prov receives the
// block ID of each promoted block content root.
func (c *Client) assemble(parts [][]byte, prov map[*xmltree.Node]int) (*xmltree.Document, error) {
	var combined []byte
	wrapped := false
	if len(parts) == 1 && topTag(parts[0]) == c.rootTag {
		combined = parts[0]
	} else {
		wrapped = true
		var buf bytes.Buffer
		buf.WriteString("<" + c.rootTag + ">")
		for _, p := range parts {
			buf.Write(p)
		}
		buf.WriteString("</" + c.rootTag + ">")
		combined = buf.Bytes()
	}
	// The parsed tree is rewritten below (envelopes unwrapped, decoys
	// dropped), so it is numbered once, at the end.
	root, err := xmltree.ParseCompactRoot(combined)
	if err != nil {
		return nil, fmt.Errorf("client: reassemble answer: %w", err)
	}
	root, err = c.resolveTree(root, prov)
	if err != nil {
		return nil, err
	}
	if root.Kind != xmltree.Element {
		// A lone attribute part; re-root it.
		wrapEl := xmltree.NewElement(c.rootTag)
		wrapEl.AppendChild(root)
		root = wrapEl
	}
	// A synthetic wrapper around what resolved to the document root
	// itself (e.g. the top scheme's single whole-document block) must
	// collapse, or absolute paths would see the root twice.
	if wrapped && root.Tag == c.rootTag && len(root.Children) == 1 {
		if ch := root.Children[0]; ch.Kind == xmltree.Element && ch.Tag == c.rootTag {
			ch.Parent = nil
			root = ch
		}
	}
	return xmltree.NewDocument(root), nil
}

func topTag(part []byte) string {
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

// resolveTree rewrites the parsed answer in place: <_blk> envelopes
// are unwrapped (decoys stripped, single content child promoted),
// <_attr> wrappers become attribute nodes, and attributes are
// reordered before element children. It returns the (possibly
// replaced) node.
func (c *Client) resolveTree(n *xmltree.Node, prov map[*xmltree.Node]int) (*xmltree.Node, error) {
	if n.Kind == xmltree.Element && n.Tag == wire.BlockWrapTag {
		idStr, hasID := n.Attr("id")
		content, err := c.unwrapBlock(n)
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
		return c.resolveTree(content, nil) // provenance stops at block roots
	}
	if n.Kind == xmltree.Element && n.Tag == wire.AttrWrapTag {
		name, _ := n.Attr("name")
		return xmltree.NewAttribute(name, n.LeafValue()), nil
	}
	if n.Kind != xmltree.Element {
		return n, nil
	}
	for i, ch := range n.Children {
		r, err := c.resolveTree(ch, prov)
		if err != nil {
			return nil, err
		}
		if r != ch {
			r.Parent = n
			n.Children[i] = r
		}
	}
	reorderAttributes(n)
	return n, nil
}

// unwrapBlock removes a decrypted block's <_blk> envelope: decoys
// are stripped and the single content child is returned, converted
// back to an attribute node when it is an <_attr> wrapper.
func (c *Client) unwrapBlock(blk *xmltree.Node) (*xmltree.Node, error) {
	if blk.Kind != xmltree.Element || blk.Tag != wire.BlockWrapTag {
		return nil, fmt.Errorf("client: decrypted block is not a %s envelope", wire.BlockWrapTag)
	}
	c.stripDecoys(blk)
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

// stripDecoys removes direct _decoy children (§4.1).
func (c *Client) stripDecoys(n *xmltree.Node) {
	if n.Kind != xmltree.Element {
		return
	}
	kept := n.Children[:0]
	for _, ch := range n.Children {
		if ch.Kind == xmltree.Element && ch.Tag == wire.DecoyTag {
			continue
		}
		kept = append(kept, ch)
	}
	n.Children = kept
}

func reorderAttributes(n *xmltree.Node) {
	if n.Kind != xmltree.Element {
		return
	}
	var attrs, rest []*xmltree.Node
	for _, ch := range n.Children {
		if ch.Kind == xmltree.Attribute {
			attrs = append(attrs, ch)
		} else {
			rest = append(rest, ch)
		}
	}
	if len(attrs) == 0 {
		return
	}
	n.Children = append(attrs, rest...)
}
