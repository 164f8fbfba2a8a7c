// Package client implements the trusted side of Figure 1: the data
// owner. It encrypts the database under a chosen encryption scheme
// (§4), builds the server metadata (DSI tables §5.1, OPESS value
// index entries §5.2), translates queries (§6.1, Fig. 7a), and
// post-processes answers (§6.4) so that the final result equals the
// original query evaluated on the plaintext database:
// Q(δ(Qs(η(D)))) = Q(D).
package client

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/cryptoprim"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/scheme"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// Client holds the owner's keys and the small translation state that
// remains client-side after upload: which tags are encrypted, the
// OPESS transformer per encrypted leaf tag, and the document's root
// tag for answer reassembly. None of this is ever sent to the
// server.
type Client struct {
	keys    *cryptoprim.KeySet
	rootTag string

	// encTags / plainTags record, per tag key ("tag" or "@attr"),
	// whether nodes with that tag occur inside encryption blocks /
	// in the plaintext residue. A tag may occur both ways.
	encTags   map[string]bool
	plainTags map[string]bool

	// attrs holds the OPESS transformer table for each encrypted leaf
	// tag, published copy-on-write: the stored map is immutable, and
	// RebuildEntries replaces it wholesale with an edited copy.
	// Queries pin ONE table through Snapshot (see View) so a whole
	// translation sees one consistent set of transformers even while
	// an update is rewriting a band.
	attrs atomic.Pointer[attrTable]
	// occ retains the per-attribute occurrence bookkeeping (value ->
	// containing blocks) that built the value index; update support
	// rebuilds index bands from it (see update.go). Only the
	// (serialized) update path touches it — never queries.
	occ map[string]*tagOccurrences
	// bands fixes each attribute's ciphertext band for the lifetime
	// of the hosted database (immutable after Encrypt).
	bands map[string]uint8

	decoyCounter uint64
}

// attrTable maps a tag key to its OPESS transformer. Published
// tables are immutable: edits copy-and-replace.
type attrTable map[string]*opess.Attribute

// loadAttrs returns the current (immutable) transformer table.
func (c *Client) loadAttrs() attrTable {
	if p := c.attrs.Load(); p != nil {
		return *p
	}
	return nil
}

// setAttrs publishes a new transformer table. The caller must not
// mutate t afterwards.
func (c *Client) setAttrs(t attrTable) { c.attrs.Store(&t) }

// View is a pinned snapshot of the client's translation state: the
// OPESS transformer table as of Snapshot time, plus the immutable
// tag-placement maps. Translating a query through a View guarantees
// every value comparison in it uses one consistent table, no matter
// what updates commit concurrently. The zero/shared Client state it
// references (keys, encTags, plainTags, bands) never changes after
// Encrypt, so a View is safe for concurrent use and costs one
// pointer load to take.
type View struct {
	c     *Client
	attrs attrTable
}

// Snapshot pins the current translation state.
func (c *Client) Snapshot() *View { return &View{c: c, attrs: c.loadAttrs()} }

// New creates a client from a master secret.
func New(masterKey []byte) (*Client, error) {
	keys, err := cryptoprim.NewKeySet(masterKey)
	if err != nil {
		return nil, err
	}
	c := &Client{
		keys:      keys,
		encTags:   map[string]bool{},
		plainTags: map[string]bool{},
		occ:       map[string]*tagOccurrences{},
		bands:     map[string]uint8{},
	}
	c.setAttrs(attrTable{})
	return c, nil
}

// Keys exposes the key set for white-box tests; production callers
// never need it.
func (c *Client) Keys() *cryptoprim.KeySet { return c.keys }

// TagOccursPlain reports whether any node with this tag key is
// stored in the plaintext residue; aggregates can only use the
// single-block index path when the answer cannot hide in plaintext.
func (c *Client) TagOccursPlain(tagKey string) bool { return c.plainTags[tagKey] }

// tagKey is the canonical map key for a node's tag.
func tagKey(n *xmltree.Node) string {
	if n.Kind == xmltree.Attribute {
		return "@" + n.Tag
	}
	return n.Tag
}

// Encrypt builds the hosted database for doc under the scheme s:
// every block subtree is serialized (with a decoy appended when the
// scheme says so) and AES-GCM encrypted; the residue keeps the rest
// in plaintext with placeholders; the DSI tables and OPESS value
// index entries are derived. The client's translation state is
// (re)initialized from this document.
func (c *Client) Encrypt(doc *xmltree.Document, s *scheme.Scheme) (*wire.HostedDB, error) {
	if doc.Root == nil {
		return nil, fmt.Errorf("client: empty document")
	}
	c.rootTag = doc.Root.Tag
	c.encTags = map[string]bool{}
	c.plainTags = map[string]bool{}
	c.setAttrs(attrTable{})
	c.occ = map[string]*tagOccurrences{}
	c.bands = map[string]uint8{}

	md, err := dsi.BuildMetadata(doc, s.BlockRoots, c.keys)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}

	// Record tag placement for query translation.
	for _, n := range doc.Nodes() {
		if n.Kind == xmltree.Text {
			continue
		}
		if md.NodeBlock[n] >= 0 {
			c.encTags[tagKey(n)] = true
		} else {
			c.plainTags[tagKey(n)] = true
		}
	}

	// Encrypt blocks.
	blocks := make([][]byte, len(s.BlockRoots))
	for id, root := range s.BlockRoots {
		pt, err := c.serializeBlock(root, s.Decoy[root])
		if err != nil {
			return nil, err
		}
		ct, err := c.keys.EncryptBlock(pt)
		if err != nil {
			return nil, err
		}
		blocks[id] = ct
	}

	// Build the plaintext residue with placeholders.
	rootIsBlock := len(s.BlockRoots) == 1 && s.BlockRoots[0] == doc.Root
	ivs := map[*xmltree.Node]dsi.Interval{}
	var residue *xmltree.Document
	if rootIsBlock {
		ph := placeholder(0, false)
		ivs[ph] = md.Assignment[doc.Root]
		residue = xmltree.NewDocument(ph)
	} else {
		rootID := make(map[*xmltree.Node]int, len(s.BlockRoots))
		for id, r := range s.BlockRoots {
			rootID[r] = id
		}
		blockID := func(n *xmltree.Node) (int, bool) {
			id, ok := rootID[n]
			return id, ok
		}
		rr := c.buildResidue(doc.Root, blockID, md, ivs)
		residue = xmltree.NewDocument(rr)
	}

	// OPESS value index over the encrypted leaf values.
	entries, err := c.buildValueIndex(doc, md)
	if err != nil {
		return nil, err
	}

	return &wire.HostedDB{
		Residue:          residue,
		ResidueIntervals: ivs,
		Table:            md.Table,
		BlockReps:        md.BlockReps,
		Blocks:           blocks,
		IndexEntries:     entries,
	}, nil
}

// serializeBlock produces the plaintext bytes of one encryption
// block: a <_blk> envelope holding the subtree's compact XML (an
// attribute root is wrapped in <_attr>), plus a sibling <_decoy>
// child when the scheme calls for one (§4.1). The envelope keeps the
// decoy out of the content's text, since the data model forbids
// mixed content.
func (c *Client) serializeBlock(root *xmltree.Node, decoy bool) ([]byte, error) {
	var content *xmltree.Node
	if root.Kind == xmltree.Attribute {
		content = xmltree.NewElement(wire.AttrWrapTag)
		content.AppendChild(xmltree.NewAttribute("name", root.Tag))
		content.AppendChild(xmltree.NewText(root.Value))
	} else {
		content = root.Clone()
		content.Parent = nil
	}
	top := xmltree.NewElement(wire.BlockWrapTag)
	top.AppendChild(content)
	if decoy {
		c.decoyCounter++
		top.AppendValue(wire.DecoyTag, c.keys.RandomDecoy(c.decoyCounter))
	}
	var buf bytes.Buffer
	if err := xmltree.NewDocument(top).Serialize(&buf, false); err != nil {
		return nil, fmt.Errorf("client: serialize block: %w", err)
	}
	return buf.Bytes(), nil
}

func placeholder(id int, attr bool) *xmltree.Node {
	ph := xmltree.NewElement(wire.PlaceholderTag)
	ph.AppendChild(xmltree.NewAttribute("id", strconv.Itoa(id)))
	if attr {
		ph.AppendChild(xmltree.NewAttribute("attr", "1"))
	}
	return ph
}

// buildResidue clones the document, replacing each block subtree by
// a placeholder carrying the block root's DSI interval.
func (c *Client) buildResidue(n *xmltree.Node, blockID func(*xmltree.Node) (int, bool),
	md *dsi.Metadata, ivs map[*xmltree.Node]dsi.Interval) *xmltree.Node {

	if id, isBlock := blockID(n); isBlock {
		ph := placeholder(id, n.Kind == xmltree.Attribute)
		ivs[ph] = md.Assignment[n]
		return ph
	}
	cp := &xmltree.Node{Kind: n.Kind, Tag: n.Tag, Value: n.Value}
	if n.Kind != xmltree.Text {
		ivs[cp] = md.Assignment[n]
	}
	for _, ch := range n.Children {
		cc := c.buildResidue(ch, blockID, md, ivs)
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}
