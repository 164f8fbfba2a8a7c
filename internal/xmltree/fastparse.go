package xmltree

import (
	"bytes"
	"fmt"
	"strings"
)

// ParseCompact parses the subset of XML that this package's compact
// Serialize emits: elements, double-quoted attributes, escaped text,
// self-closing empty tags, no comments / processing instructions /
// doctype / namespaces / mixed content. It is several times faster
// than the encoding/xml-based Parse and is used on trusted
// round-trip data — the client re-parsing fragments and decrypted
// blocks that this library serialized itself. Parse remains the
// entry point for arbitrary external XML.
func ParseCompact(data []byte) (*Document, error) {
	root, err := ParseCompactRoot(data)
	if err != nil {
		return nil, err
	}
	return NewDocument(root), nil
}

// ParseCompactRoot is ParseCompact without the Document: the parsed
// root, not yet numbered, for a caller that rewrites the tree before
// wrapping it. The nodes of one parse share slab allocations, so
// holding any of them keeps its slab alive.
func ParseCompactRoot(data []byte) (*Node, error) {
	p := &fastParser{data: data, chunk: len(data)/32 + 1}
	return p.parse()
}

type fastParser struct {
	data  []byte
	pos   int
	slab  []Node            // unused tail of the current node chunk
	chunk int               // size of the next chunk
	names map[string]string // interned tag and attribute names
}

// Node chunks start at a node per 32 input bytes and double up to
// slabMax: a small fragment costs one small allocation, a large
// answer a few dozen.
const slabMax = 1024

func (p *fastParser) newNode(kind Kind, tag, value string) *Node {
	if len(p.slab) == 0 {
		p.chunk = min(p.chunk, slabMax)
		p.slab = make([]Node, p.chunk)
		p.chunk *= 2
	}
	n := &p.slab[0]
	p.slab = p.slab[1:]
	n.Kind, n.Tag, n.Value = kind, tag, value
	return n
}

func (p *fastParser) intern(name []byte) string {
	if s, ok := p.names[string(name)]; ok {
		return s
	}
	if p.names == nil {
		p.names = make(map[string]string)
	}
	s := string(name)
	p.names[s] = s
	return s
}

func (p *fastParser) parse() (*Node, error) {
	var root *Node
	// hasElem: an element child is attached, so text would be mixed content.
	type open struct {
		n       *Node
		hasElem bool
	}
	var stack []open
	n := len(p.data)
	for p.pos < n {
		c := p.data[p.pos]
		if c != '<' {
			// Text run until the next tag.
			start := p.pos
			for p.pos < n && p.data[p.pos] != '<' {
				p.pos++
			}
			text := p.data[start:p.pos]
			if len(bytes.TrimSpace(text)) == 0 {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: text outside root at %d", start)
			}
			cur := stack[len(stack)-1]
			if cur.hasElem {
				return nil, fmt.Errorf("xmltree: mixed content under <%s>", cur.n.Tag)
			}
			cur.n.AppendChild(p.newNode(Text, "", unescapeXML(string(text))))
			continue
		}
		// A tag.
		if p.pos+1 < n && p.data[p.pos+1] == '/' {
			// Closing tag.
			end := p.pos + bytes.IndexByte(p.data[p.pos:], '>')
			if end < p.pos {
				return nil, fmt.Errorf("xmltree: unterminated closing tag at %d", p.pos)
			}
			name := p.data[p.pos+2 : end]
			if len(stack) == 0 || stack[len(stack)-1].n.Tag != string(name) {
				return nil, fmt.Errorf("xmltree: mismatched closing </%s> at %d", name, p.pos)
			}
			stack = stack[:len(stack)-1]
			p.pos = end + 1
			continue
		}
		e, selfClosed, err := p.parseOpenTag()
		if err != nil {
			return nil, err
		}
		if len(stack) == 0 {
			if root != nil {
				return nil, fmt.Errorf("xmltree: multiple root elements")
			}
			root = e
		} else {
			parent := &stack[len(stack)-1]
			parent.n.AppendChild(e)
			parent.hasElem = true
		}
		if !selfClosed {
			stack = append(stack, open{n: e})
		}
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed elements at EOF", len(stack))
	}
	return root, nil
}

func (p *fastParser) parseOpenTag() (*Node, bool, error) {
	n := len(p.data)
	p.pos++ // consume '<'
	start := p.pos
	for p.pos < n && !isTagEnd(p.data[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, false, fmt.Errorf("xmltree: empty tag name at %d", start)
	}
	e := p.newNode(Element, p.intern(p.data[start:p.pos]), "")
	for {
		// Skip whitespace.
		for p.pos < n && (p.data[p.pos] == ' ' || p.data[p.pos] == '\n' || p.data[p.pos] == '\t') {
			p.pos++
		}
		if p.pos >= n {
			return nil, false, fmt.Errorf("xmltree: unterminated tag <%s>", e.Tag)
		}
		switch p.data[p.pos] {
		case '>':
			p.pos++
			return e, false, nil
		case '/':
			if p.pos+1 >= n || p.data[p.pos+1] != '>' {
				return nil, false, fmt.Errorf("xmltree: bad '/' in tag <%s>", e.Tag)
			}
			p.pos += 2
			return e, true, nil
		}
		// Attribute: name="value".
		aStart := p.pos
		for p.pos < n && p.data[p.pos] != '=' && !isTagEnd(p.data[p.pos]) {
			p.pos++
		}
		if p.pos >= n || p.data[p.pos] != '=' {
			return nil, false, fmt.Errorf("xmltree: malformed attribute in <%s>", e.Tag)
		}
		name := p.intern(p.data[aStart:p.pos])
		p.pos++ // '='
		if p.pos >= n || p.data[p.pos] != '"' {
			return nil, false, fmt.Errorf("xmltree: attribute %s not double-quoted", name)
		}
		p.pos++
		vStart := p.pos
		for p.pos < n && p.data[p.pos] != '"' {
			p.pos++
		}
		if p.pos >= n {
			return nil, false, fmt.Errorf("xmltree: unterminated attribute %s", name)
		}
		e.AppendChild(p.newNode(Attribute, name, unescapeXML(string(p.data[vStart:p.pos]))))
		p.pos++ // closing quote
	}
}

func isTagEnd(c byte) bool {
	return c == ' ' || c == '>' || c == '/' || c == '\n' || c == '\t'
}

var xmlUnescaper = strings.NewReplacer(
	"&lt;", "<", "&gt;", ">", "&quot;", `"`, "&amp;", "&",
)

func unescapeXML(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return xmlUnescaper.Replace(s)
}
