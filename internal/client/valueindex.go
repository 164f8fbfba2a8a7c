package client

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/xmltree"
)

// tagOccurrences accumulates, for one leaf tag, the exact value
// frequency distribution and the containing block of each occurrence
// in document order.
type tagOccurrences struct {
	freq   map[string]int
	blocks map[string][]int
	order  []string // distinct values in first-seen order
}

// buildValueIndex constructs the OPESS transformer for every
// encrypted leaf tag and emits the value-index entries the server
// indexes (§5.2.1). Each occurrence contributes
// its containing block's ID; the transformer splits occurrences into
// chunk ciphertexts and replicates entries by the secret scale
// factor. Decoys are added later, at block serialization, and are
// never indexed.
func (c *Client) buildValueIndex(doc *xmltree.Document, md *dsi.Metadata) ([]btree.Entry, error) {
	byTag := map[string]*tagOccurrences{}
	for _, n := range doc.Nodes() {
		if n.Kind == xmltree.Text || !n.IsLeaf() {
			continue
		}
		bid := md.NodeBlock[n]
		if bid < 0 {
			continue // plaintext values live in the residue
		}
		v := n.LeafValue()
		if v == "" {
			continue
		}
		key := tagKey(n)
		o := byTag[key]
		if o == nil {
			o = &tagOccurrences{freq: map[string]int{}, blocks: map[string][]int{}}
			byTag[key] = o
		}
		if o.freq[v] == 0 {
			o.order = append(o.order, v)
		}
		o.freq[v]++
		o.blocks[v] = append(o.blocks[v], bid)
	}

	keys := make([]string, 0, len(byTag))
	for k := range byTag {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if len(keys) > 255 {
		return nil, fmt.Errorf("client: %d indexed attributes exceed the 255 band limit", len(keys))
	}
	var entries []btree.Entry
	attrs := attrTable{}
	for i, key := range keys {
		o := byTag[key]
		attr, err := opess.BuildBand(key, o.freq, c.keys, uint8(i+1))
		if err != nil {
			return nil, fmt.Errorf("client: value index for %s: %w", key, err)
		}
		attrs[key] = attr
		c.occ[key] = o
		c.bands[key] = uint8(i + 1)
		for _, v := range o.order {
			es, err := attr.IndexEntries(v, o.blocks[v])
			if err != nil {
				return nil, fmt.Errorf("client: value index for %s=%q: %w", key, v, err)
			}
			entries = append(entries, es...)
		}
	}
	// One atomic publish: no partially-built table is ever visible.
	c.setAttrs(attrs)
	return entries, nil
}
