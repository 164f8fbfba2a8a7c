package xmltree

import (
	"fmt"
	"strings"
)

// refParser is ParseCompact's parser as it stood before nodes came
// from a slab and names were interned: one heap node per NewElement /
// NewAttribute / NewText, ElementChildren() for the mixed-content
// check. TestParseCompactUnchanged holds the current parser to its
// trees and its error strings.
func refParseCompact(data []byte) (*Document, error) {
	p := &refParser{data: data}
	root, err := p.parse()
	if err != nil {
		return nil, err
	}
	return NewDocument(root), nil
}

type refParser struct {
	data []byte
	pos  int
}

func (p *refParser) parse() (*Node, error) {
	var root *Node
	var stack []*Node
	n := len(p.data)
	for p.pos < n {
		c := p.data[p.pos]
		if c != '<' {
			// Text run until the next tag.
			start := p.pos
			for p.pos < n && p.data[p.pos] != '<' {
				p.pos++
			}
			text := string(p.data[start:p.pos])
			if strings.TrimSpace(text) == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: text outside root at %d", start)
			}
			cur := stack[len(stack)-1]
			if len(cur.ElementChildren()) > 0 {
				return nil, fmt.Errorf("xmltree: mixed content under <%s>", cur.Tag)
			}
			cur.AppendChild(NewText(unescapeXML(text)))
			continue
		}
		// A tag.
		if p.pos+1 < n && p.data[p.pos+1] == '/' {
			// Closing tag.
			end := p.find('>', p.pos)
			if end < 0 {
				return nil, fmt.Errorf("xmltree: unterminated closing tag at %d", p.pos)
			}
			name := string(p.data[p.pos+2 : end])
			if len(stack) == 0 || stack[len(stack)-1].Tag != name {
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
			stack[len(stack)-1].AppendChild(e)
		}
		if !selfClosed {
			stack = append(stack, e)
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

func (p *refParser) parseOpenTag() (*Node, bool, error) {
	n := len(p.data)
	p.pos++ // consume '<'
	start := p.pos
	for p.pos < n && !isTagEnd(p.data[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, false, fmt.Errorf("xmltree: empty tag name at %d", start)
	}
	e := NewElement(string(p.data[start:p.pos]))
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
		name := string(p.data[aStart:p.pos])
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
		e.AppendChild(NewAttribute(name, unescapeXML(string(p.data[vStart:p.pos]))))
		p.pos++ // closing quote
	}
}

func (p *refParser) find(b byte, from int) int {
	for i := from; i < len(p.data); i++ {
		if p.data[i] == b {
			return i
		}
	}
	return -1
}
