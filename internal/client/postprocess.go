package client

import (
	"fmt"

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

// PostProcess reconstructs the plaintext answer and applies the
// original query Q to it, yielding exactly Q(D)'s matches within the
// answer (§6.4). It returns the result nodes and the reconstructed
// document that owns them.
func (c *Client) PostProcess(q *xpath.Path, ans *wire.Answer, blocks map[int][]byte) ([]*xmltree.Node, *xmltree.Document, error) {
	res, err := c.PostProcessFull(q, ans, blocks)
	if err != nil {
		return nil, nil, err
	}
	return res.Nodes, res.Doc, nil
}

// PostProcessFull is PostProcess with block provenance. The answer is
// assembled in one pass, straight into one tree under a synthetic
// root: each fragment's bytes are parsed up to its next placeholder,
// the block the placeholder names is parsed in its place (envelope
// opened, decoy dropped, an attribute block becoming an attribute of
// the element around it), and the fragment parse goes on. Blocks no
// fragment references (the anchor itself lay inside an encrypted
// block) follow the fragments, in answer order.
func (c *Client) PostProcessFull(q *xpath.Path, ans *wire.Answer, blocks map[int][]byte) (*PostResult, error) {
	// An empty answer is the server's proof that no anchor can match
	// (its execution keeps every *possible* match). Re-applying Q to
	// a fabricated empty root would resurrect matches for queries the
	// synthetic shell happens to satisfy — e.g. a negated predicate
	// on the document root ("//site[not(x)]": the shell has no x) —
	// so short-circuit instead of evaluating against scaffolding.
	if len(ans.Fragments) == 0 && len(ans.BlockIDs) == 0 {
		doc := xmltree.NewDocument(xmltree.NewElement(c.rootTag))
		return &PostResult{Doc: doc, BlockOf: map[*xmltree.Node]int{}}, nil
	}

	size := 0
	for _, frag := range ans.Fragments {
		size += len(frag)
	}
	for _, id := range ans.BlockIDs {
		size += len(blocks[id])
	}
	b := xmltree.NewBuilder(c.rootTag, size)
	prov := make(map[*xmltree.Node]int, len(ans.BlockIDs))
	referenced := make(map[int]bool, len(ans.BlockIDs))
	for _, frag := range ans.Fragments {
		if err := buildFragment(b, frag, blocks, prov, referenced); err != nil {
			return nil, err
		}
	}
	for _, id := range ans.BlockIDs {
		if referenced[id] {
			continue
		}
		pt, ok := blocks[id]
		if !ok {
			return nil, fmt.Errorf("client: answer references undecrypted block %d", id)
		}
		if err := attachBlock(b, pt, id, prov); err != nil {
			return nil, err
		}
	}

	// A synthetic root around what was the document root itself (a
	// fragment rooted there, or the top scheme's single whole-document
	// block) must collapse, or absolute paths would see the root twice.
	root := b.Root()
	if len(root.Children) == 1 {
		if ch := root.Children[0]; ch.Kind == xmltree.Element && ch.Tag == c.rootTag {
			ch.Parent = nil
			root = ch
		}
	}
	doc := xmltree.NewDocument(root)
	return &PostResult{Nodes: xpath.Evaluate(doc, q), Doc: doc, BlockOf: prov}, nil
}

// buildFragment adds one answer fragment to the tree: the bytes between
// placeholders are fed to b, and each <EncBlock id="N"/> placeholder
// is replaced by block N's content, recorded in used. Blocks never
// contain placeholders (blocks are not nested), so one pass suffices.
// A fragment with no placeholder is parsed whole; if it is an <_attr>
// wrapper (an attribute anchored in the plaintext residue) it becomes
// an attribute of the synthetic root.
func buildFragment(b *xmltree.Builder, frag []byte, blocks map[int][]byte, prov map[*xmltree.Node]int, used map[int]bool) error {
	copied, placeholders := 0, 0
	var err error
	scanErr := wire.PlaceholderIDs(frag, func(id, start, end int) {
		placeholders++
		if err != nil {
			return
		}
		if err = b.Feed(frag[copied:start]); err != nil {
			err = fmt.Errorf("client: reassemble answer: %w", err)
			return
		}
		pt, ok := blocks[id]
		if !ok {
			err = fmt.Errorf("client: fragment references undecrypted block %d", id)
			return
		}
		err = attachBlock(b, pt, id, prov)
		used[id] = true
		copied = end
	})
	if scanErr != nil {
		return fmt.Errorf("client: %w", scanErr)
	}
	if err != nil {
		return err
	}
	if placeholders == 0 {
		n, err := b.Parse(frag)
		if err != nil {
			return fmt.Errorf("client: reassemble answer: %w", err)
		}
		b.Attach(unwrapAttr(n))
		return nil
	}
	if err := b.Feed(frag[copied:]); err != nil {
		return fmt.Errorf("client: reassemble answer: %w", err)
	}
	if err := b.End(); err != nil {
		return fmt.Errorf("client: reassemble answer: %w", err)
	}
	return nil
}

// attachBlock places block id's content at b's open element and
// records its provenance.
func attachBlock(b *xmltree.Builder, pt []byte, id int, prov map[*xmltree.Node]int) error {
	content, err := readBlock(b, pt)
	if err != nil {
		return err
	}
	b.Attach(content)
	prov[content] = id
	return nil
}

// ReadBlock parses one decrypted block and returns its content, as
// PostProcess places it: an element subtree, or an attribute node.
func ReadBlock(pt []byte) (*xmltree.Node, error) {
	return readBlock(new(xmltree.Builder), pt)
}

// readBlock is the one reader of a decrypted block's <_blk> envelope:
// it parses pt into b's slabs, drops the decoy (§4.1) and returns the
// single content element, parentless — as an attribute node when it is
// an <_attr> wrapper.
func readBlock(b *xmltree.Builder, pt []byte) (*xmltree.Node, error) {
	env, err := b.Parse(pt)
	if err != nil {
		return nil, fmt.Errorf("client: decrypted block: %w", err)
	}
	if env.Tag != wire.BlockWrapTag {
		return nil, fmt.Errorf("client: decrypted block is not a %s envelope", wire.BlockWrapTag)
	}
	var content *xmltree.Node
	elems := 0
	for _, ch := range env.Children {
		if ch.Kind == xmltree.Element && ch.Tag != wire.DecoyTag {
			content = ch
			elems++
		}
	}
	if elems != 1 {
		return nil, fmt.Errorf("client: block envelope holds %d elements, want 1", elems)
	}
	content.Parent = nil
	return unwrapAttr(content), nil
}

// unwrapAttr turns an <_attr name="k">v</_attr> wrapper back into the
// attribute k="v" it stands for; any other node is returned as is.
func unwrapAttr(n *xmltree.Node) *xmltree.Node {
	if n.Kind != xmltree.Element || n.Tag != wire.AttrWrapTag {
		return n
	}
	name, _ := n.Attr("name")
	return xmltree.NewAttribute(name, n.LeafValue())
}
