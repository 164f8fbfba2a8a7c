package wire

import (
	"bytes"
	"fmt"
	"strconv"
)

var placeholderOpen = []byte("<" + PlaceholderTag)

// PlaceholderIDs finds every <EncBlock id="N" .../> placeholder in a
// canonically serialized fragment (SerializeFragment's output) and
// calls yield, in document order, with the block ID and the byte
// range fragment[start:end] of the whole tag. It scans, it does not
// parse: the serializer escapes every '<' in text and attribute
// values (and no XML name holds one), so "<EncBlock" plus a tag
// delimiter can only start a placeholder element.
//
// The server (which blocks to ship), the verifier (which blocks the
// answer must not omit) and the client's answer assembly (where each
// block's content goes) all read placeholders through this one
// function, so they cannot disagree; a placeholder that is
// unterminated, not self-closing, or has no decimal id is an error for
// all three.
func PlaceholderIDs(fragment []byte, yield func(id, start, end int)) error {
	for from := 0; ; {
		i := bytes.Index(fragment[from:], placeholderOpen)
		if i < 0 {
			return nil
		}
		start := from + i
		p := start + len(placeholderOpen)
		if p < len(fragment) && !isTagDelim(fragment[p]) {
			from = p // a longer tag name that merely starts with EncBlock
			continue
		}
		id, end, err := scanPlaceholder(fragment, p)
		if err != nil {
			return fmt.Errorf("wire: placeholder at byte %d: %w", start, err)
		}
		yield(id, start, end)
		from = end
	}
}

// scanPlaceholder reads a placeholder's attributes from p (just past
// the tag name) through "/>": the id, and the offset past the tag.
func scanPlaceholder(data []byte, p int) (id, end int, err error) {
	id = -1
	for {
		for p < len(data) && (data[p] == ' ' || data[p] == '\n' || data[p] == '\t') {
			p++
		}
		if p >= len(data) {
			return 0, 0, fmt.Errorf("unterminated tag")
		}
		if data[p] == '/' || data[p] == '>' {
			if !bytes.HasPrefix(data[p:], []byte("/>")) {
				return 0, 0, fmt.Errorf("not a self-closing tag")
			}
			if id < 0 {
				return 0, 0, fmt.Errorf("no id attribute")
			}
			return id, p + 2, nil
		}
		nameStart := p
		for p < len(data) && data[p] != '=' && !isTagDelim(data[p]) {
			p++
		}
		if !bytes.HasPrefix(data[p:], []byte(`="`)) {
			return 0, 0, fmt.Errorf("malformed attribute")
		}
		name := data[nameStart:p]
		p += 2
		n := bytes.IndexByte(data[p:], '"')
		if n < 0 {
			return 0, 0, fmt.Errorf("unterminated attribute value")
		}
		if val := data[p : p+n]; id < 0 && string(name) == "id" {
			// The first byte is checked because Atoi alone accepts a sign.
			if id, err = strconv.Atoi(string(val)); err != nil || val[0] < '0' || val[0] > '9' {
				return 0, 0, fmt.Errorf("id %q is not a block number", val)
			}
		}
		p += n + 1
	}
}

func isTagDelim(c byte) bool {
	return c == ' ' || c == '>' || c == '/' || c == '\n' || c == '\t'
}
