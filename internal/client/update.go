package client

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/btree"
	"repro/internal/opess"
	"repro/internal/xmltree"
)

// Update support — the paper's future work #3 (§8), shipped as an
// extension. The client retains, per indexed attribute, the exact
// occurrence bookkeeping it used to build the value index (value ->
// containing blocks). A leaf-value edit then becomes: re-encrypt the
// touched blocks with fresh decoys and nonces, adjust the
// bookkeeping, rebuild the attribute's OPESS transformer for the new
// frequency distribution, and replace that attribute's index band
// wholesale. Whole-band replacement is deliberate: OPESS parameters
// depend on the full distribution, and replacing everything makes
// every possible edit look the same to the server.

// ApplyValueEdit records that one occurrence of oldValue (stored in
// blockID) became newValue, updating the attribute's occurrence
// bookkeeping. Call RebuildEntries afterwards to regenerate the
// index band.
func (c *Client) ApplyValueEdit(tagKey, oldValue, newValue string, blockID int) error {
	o, ok := c.occ[tagKey]
	if !ok {
		return fmt.Errorf("client: attribute %s is not indexed", tagKey)
	}
	if oldValue == newValue {
		return nil
	}
	list := o.blocks[oldValue]
	idx := -1
	for i, b := range list {
		if b == blockID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("client: %s=%q has no occurrence in block %d", tagKey, oldValue, blockID)
	}
	o.blocks[oldValue] = append(list[:idx], list[idx+1:]...)
	o.freq[oldValue]--
	if o.freq[oldValue] == 0 {
		delete(o.freq, oldValue)
		delete(o.blocks, oldValue)
		for i, v := range o.order {
			if v == oldValue {
				o.order = append(o.order[:i], o.order[i+1:]...)
				break
			}
		}
	}
	if o.freq[newValue] == 0 {
		o.order = append(o.order, newValue)
	}
	o.freq[newValue]++
	o.blocks[newValue] = append(o.blocks[newValue], blockID)
	return nil
}

// RebuildEntries regenerates an attribute's OPESS transformer (same
// band) and its complete set of index entries from the current
// bookkeeping, in the canonical (key, block ID) order the value index
// and the Merkle band leaf keep, so neither the owner's verifier nor
// the server has to sort the band again. The transformer table is
// replaced copy-on-write, so a concurrent query that pinned a View
// keeps translating through the pre-edit table.
func (c *Client) RebuildEntries(tagKey string) ([]btree.Entry, uint8, error) {
	o, ok := c.occ[tagKey]
	if !ok {
		return nil, 0, fmt.Errorf("client: attribute %s is not indexed", tagKey)
	}
	band := c.bands[tagKey]
	attr, err := opess.BuildBand(tagKey, o.freq, c.keys, band)
	if err != nil {
		return nil, 0, fmt.Errorf("client: rebuild %s: %w", tagKey, err)
	}
	next := make(attrTable, len(c.loadAttrs())+1)
	for k, v := range c.loadAttrs() {
		next[k] = v
	}
	next[tagKey] = attr
	c.setAttrs(next)
	var entries []btree.Entry
	for _, v := range o.order {
		es, err := attr.IndexEntries(v, o.blocks[v])
		if err != nil {
			return nil, 0, fmt.Errorf("client: rebuild %s=%q: %w", tagKey, v, err)
		}
		entries = append(entries, es...)
	}
	btree.SortBand(entries)
	return entries, band, nil
}

// TableMark is the client's translation state from before an update
// edited it: the published transformer table and the occurrence
// bookkeeping of the attributes the update touches. RestoreTables puts
// it back when the update never reaches the server.
type TableMark struct {
	attrs *attrTable
	occ   map[string]*tagOccurrences
}

// MarkTables records the translation state an update is about to edit
// through ApplyValueEdit and RebuildEntries on the given attributes.
// The marked bookkeeping is kept aside and the live tables edit a copy
// of it, so restoring is two pointer swaps.
func (c *Client) MarkTables(tagKeys []string) *TableMark {
	m := &TableMark{attrs: c.attrs.Load(), occ: make(map[string]*tagOccurrences, len(tagKeys))}
	for _, k := range tagKeys {
		if o, ok := c.occ[k]; ok {
			m.occ[k] = o
			c.occ[k] = o.clone()
		}
	}
	return m
}

// RestoreTables returns the translation state to mark m. Marks taken
// after m must be restored first, newest first.
func (c *Client) RestoreTables(m *TableMark) {
	c.attrs.Store(m.attrs)
	for k, o := range m.occ {
		c.occ[k] = o
	}
}

// clone deep-copies the bookkeeping, so edits to the copy never reach
// the original's maps or slices.
func (o *tagOccurrences) clone() *tagOccurrences {
	cp := &tagOccurrences{
		freq:   maps.Clone(o.freq),
		blocks: make(map[string][]int, len(o.blocks)),
		order:  slices.Clone(o.order),
	}
	for v, ids := range o.blocks {
		cp.blocks[v] = slices.Clone(ids)
	}
	return cp
}

// ReencryptBlock rebuilds an encryption block from its (edited)
// plaintext content node: fresh envelope, fresh decoy, fresh nonce.
func (c *Client) ReencryptBlock(content *xmltree.Node) ([]byte, error) {
	var root *xmltree.Node
	if content.Kind == xmltree.Attribute {
		root = content
	} else {
		root = content.Clone()
		root.Parent = nil
	}
	pt, err := c.serializeBlock(root, true)
	if err != nil {
		return nil, err
	}
	return c.keys.EncryptBlock(pt)
}

// IndexedBand exposes an attribute's band (for tests and audits).
func (c *Client) IndexedBand(tagKey string) (uint8, bool) {
	b, ok := c.bands[tagKey]
	return b, ok
}
