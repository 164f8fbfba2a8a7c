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
// round-trip data that this library serialized itself — an uploaded
// residue here, and through Builder the client's answer fragments and
// decrypted blocks. Parse remains the entry point for arbitrary
// external XML.
func ParseCompact(data []byte) (*Document, error) {
	var b Builder
	root, err := b.Parse(data)
	if err != nil {
		return nil, err
	}
	return NewDocument(root), nil
}

// Builder assembles one tree from pieces in document order, with the
// compact parser's open-element stack as its state: Feed parses bytes
// as content of the innermost open element (they may open elements and
// leave them for a later Feed to close), Attach places a ready node
// there, and Parse reads a standalone element into the same node slabs
// without placing it. The tree is rooted in the element NewBuilder
// opens, which fed bytes can never close. A zero Builder can only
// Parse.
//
// The nodes of one Builder, and their child lists, share slab
// allocations, so holding any of them keeps its slab alive. An
// element's child list is placed when the element closes, exact-size
// and capped, so appending to it later reallocates. Nothing is
// numbered: wrap the root Root returns in NewDocument. After an error
// the builder is unusable.
type Builder struct {
	data  []byte
	pos   int
	slab  []Node            // unused tail of the current node chunk
	ptrs  []*Node           // unused tail of the current child-list chunk
	chunk int               // size of the next chunk
	names map[string]string // interned tag and attribute names

	stack []open  // open elements, innermost last
	spare []open  // the stack a standalone Parse runs on
	kids  []*Node // the open elements' children so far, each run from its open.kids
}

// open is an element on the parse stack; its children so far are
// Builder.kids[kids:] less those of the elements open above it.
// hasElem: an element child is attached, so text would be mixed
// content.
type open struct {
	n       *Node
	kids    int
	hasElem bool
}

// NewBuilder returns a builder whose tree is a root element with the
// given tag, open for content. sizeHint, the number of input bytes
// expected, sizes the first node slab.
func NewBuilder(rootTag string, sizeHint int) *Builder {
	b := &Builder{chunk: sizeHint/32 + 1}
	b.stack = append(b.stack, open{n: b.newNode(Element, rootTag, "")})
	return b
}

// Root finishes the tree, closing every element still open, and
// returns the root element NewBuilder opened. Call it once, after the
// last piece.
func (b *Builder) Root() *Node {
	for len(b.stack) > 1 {
		b.close()
	}
	b.place(b.stack[0])
	return b.stack[0].n
}

// Feed parses data as content of the innermost open element. A closing
// tag for the root, or for an element not open, is an error.
func (b *Builder) Feed(data []byte) error {
	_, err := b.feed(data, 1)
	return err
}

// End reports an error unless every element Feed opened is closed
// again, as at the end of a document.
func (b *Builder) End() error {
	if n := len(b.stack) - 1; n != 0 {
		return fmt.Errorf("xmltree: %d unclosed elements at EOF", n)
	}
	return nil
}

// Attach places n, a ready parentless node, as content of the innermost
// open element: an attribute after the element's last attribute, so
// attributes still come before element children, anything else last.
func (b *Builder) Attach(n *Node) {
	cur := &b.stack[len(b.stack)-1]
	n.Parent = cur.n
	if n.Kind == Attribute {
		i := cur.kids
		for i < len(b.kids) && b.kids[i].Kind == Attribute {
			i++
		}
		b.insertKid(i, n)
		return
	}
	b.kids = append(b.kids, n)
	if n.Kind == Element {
		cur.hasElem = true
	}
}

func (b *Builder) insertKid(i int, n *Node) {
	b.kids = append(b.kids, nil)
	copy(b.kids[i+1:], b.kids[i:])
	b.kids[i] = n
}

// close pops the innermost open element and places its children.
func (b *Builder) close() {
	b.place(b.stack[len(b.stack)-1])
	b.stack = b.stack[:len(b.stack)-1]
}

// place moves o's children from the pending runs into a child-list
// chunk, exact-size and capped.
func (b *Builder) place(o open) {
	run := b.kids[o.kids:]
	if len(run) == 0 {
		return
	}
	if len(run) > len(b.ptrs) {
		b.ptrs = make([]*Node, max(len(run), b.chunk))
	}
	o.n.Children = b.ptrs[:len(run):len(run)]
	copy(o.n.Children, run)
	b.ptrs = b.ptrs[len(run):]
	b.kids = b.kids[:o.kids]
}

// Parse parses data as one standalone element, in ParseCompact's
// grammar, into the builder's slabs, and returns it unplaced. The
// builder's open elements are untouched.
func (b *Builder) Parse(data []byte) (*Node, error) {
	if b.chunk == 0 {
		b.chunk = len(data)/32 + 1
	}
	pending := len(b.kids)
	b.stack, b.spare = b.spare[:0], b.stack
	root, err := b.feed(data, 0)
	b.stack, b.spare = b.spare, b.stack
	if err != nil || len(b.spare) != 0 {
		b.kids = b.kids[:pending] // drop what the failed parse left
	}
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	if n := len(b.spare); n != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed elements at EOF", n)
	}
	return root, nil
}

// Node chunks start at a node per 32 input bytes and double up to
// slabMax: a small fragment costs one small allocation, a large
// answer a few dozen.
const slabMax = 1024

func (b *Builder) newNode(kind Kind, tag, value string) *Node {
	if len(b.slab) == 0 {
		b.chunk = min(b.chunk, slabMax)
		b.slab = make([]Node, b.chunk)
		b.chunk *= 2
	}
	n := &b.slab[0]
	b.slab = b.slab[1:]
	n.Kind, n.Tag, n.Value = kind, tag, value
	return n
}

func (b *Builder) intern(name []byte) string {
	if s, ok := b.names[string(name)]; ok {
		return s
	}
	if b.names == nil {
		b.names = make(map[string]string)
	}
	s := string(name)
	b.names[s] = s
	return s
}

// feed is the one parse loop. It parses data as content of the
// innermost open element; a closing tag never pops the stack below
// floor. On an empty stack (a standalone parse) an element becomes the
// returned root instead, and there may be only one.
func (b *Builder) feed(data []byte, floor int) (*Node, error) {
	b.data, b.pos = data, 0
	var root *Node
	n := len(data)
	for b.pos < n {
		c := data[b.pos]
		if c != '<' {
			// Text run until the next tag.
			start := b.pos
			for b.pos < n && data[b.pos] != '<' {
				b.pos++
			}
			text := data[start:b.pos]
			if len(bytes.TrimSpace(text)) == 0 {
				continue
			}
			if len(b.stack) == 0 {
				return nil, fmt.Errorf("xmltree: text outside root at %d", start)
			}
			cur := b.stack[len(b.stack)-1]
			if cur.hasElem {
				return nil, fmt.Errorf("xmltree: mixed content under <%s>", cur.n.Tag)
			}
			t := b.newNode(Text, "", unescapeXML(string(text)))
			t.Parent = cur.n
			b.kids = append(b.kids, t)
			continue
		}
		// A tag.
		if b.pos+1 < n && data[b.pos+1] == '/' {
			// Closing tag.
			end := b.pos + bytes.IndexByte(data[b.pos:], '>')
			if end < b.pos {
				return nil, fmt.Errorf("xmltree: unterminated closing tag at %d", b.pos)
			}
			name := data[b.pos+2 : end]
			if len(b.stack) <= floor || b.stack[len(b.stack)-1].n.Tag != string(name) {
				return nil, fmt.Errorf("xmltree: mismatched closing </%s> at %d", name, b.pos)
			}
			b.close()
			b.pos = end + 1
			continue
		}
		// The tag's attributes land at kids[start:], ahead of the
		// element's other children.
		start := len(b.kids)
		e, selfClosed, err := b.parseOpenTag()
		if err != nil {
			return nil, err
		}
		if len(b.stack) == 0 {
			if root != nil {
				return nil, fmt.Errorf("xmltree: multiple root elements")
			}
			root = e
		} else {
			parent := &b.stack[len(b.stack)-1]
			e.Parent = parent.n
			b.insertKid(start, e)
			parent.hasElem = true
			start++
		}
		if selfClosed {
			b.place(open{n: e, kids: start})
		} else {
			b.stack = append(b.stack, open{n: e, kids: start})
		}
	}
	return root, nil
}

func (b *Builder) parseOpenTag() (*Node, bool, error) {
	data, n := b.data, len(b.data)
	b.pos++ // consume '<'
	start := b.pos
	for b.pos < n && !isTagEnd(data[b.pos]) {
		b.pos++
	}
	if b.pos == start {
		return nil, false, fmt.Errorf("xmltree: empty tag name at %d", start)
	}
	e := b.newNode(Element, b.intern(data[start:b.pos]), "")
	for {
		// Skip whitespace.
		for b.pos < n && (data[b.pos] == ' ' || data[b.pos] == '\n' || data[b.pos] == '\t') {
			b.pos++
		}
		if b.pos >= n {
			return nil, false, fmt.Errorf("xmltree: unterminated tag <%s>", e.Tag)
		}
		switch data[b.pos] {
		case '>':
			b.pos++
			return e, false, nil
		case '/':
			if b.pos+1 >= n || data[b.pos+1] != '>' {
				return nil, false, fmt.Errorf("xmltree: bad '/' in tag <%s>", e.Tag)
			}
			b.pos += 2
			return e, true, nil
		}
		// Attribute: name="value".
		aStart := b.pos
		for b.pos < n && data[b.pos] != '=' && !isTagEnd(data[b.pos]) {
			b.pos++
		}
		if b.pos >= n || data[b.pos] != '=' {
			return nil, false, fmt.Errorf("xmltree: malformed attribute in <%s>", e.Tag)
		}
		name := b.intern(data[aStart:b.pos])
		b.pos++ // '='
		if b.pos >= n || data[b.pos] != '"' {
			return nil, false, fmt.Errorf("xmltree: attribute %s not double-quoted", name)
		}
		b.pos++
		vStart := b.pos
		for b.pos < n && data[b.pos] != '"' {
			b.pos++
		}
		if b.pos >= n {
			return nil, false, fmt.Errorf("xmltree: unterminated attribute %s", name)
		}
		a := b.newNode(Attribute, name, unescapeXML(string(data[vStart:b.pos])))
		a.Parent = e
		b.kids = append(b.kids, a)
		b.pos++ // closing quote
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
