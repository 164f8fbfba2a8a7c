package core

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// AggregateMinMax evaluates MIN(path) or MAX(path) over the leaf
// values the path selects. Per §6.4, when the target tag is
// encrypted and indexed, the order-preserving value index lets the
// server locate the extreme value's block with a single probe and
// ship exactly one block — no decryption happens server-side and the
// client decrypts one block instead of the whole answer. Paths with
// predicates, or targets with plaintext occurrences, fall back to a
// full query with client-side aggregation (still correct, just not
// single-block). COUNT is intentionally unsupported: splitting
// destroys multiplicities, the paper's stated trade-off (§5.2.1).
func (s *System) AggregateMinMax(pathStr string, max bool) (string, Timings, error) {
	return s.AggregateMinMaxContext(context.Background(), pathStr, max)
}

// AggregateMinMaxContext is AggregateMinMax with a caller-supplied
// context bounding the backend round trips.
func (s *System) AggregateMinMaxContext(ctx context.Context, pathStr string, max bool) (string, Timings, error) {
	path, err := xpath.Parse(pathStr)
	if err != nil {
		return "", Timings{}, err
	}
	var (
		v  string
		tm Timings
	)
	err = s.read(ctx, func(sn *readSnap) (err error) {
		v, tm, err = s.aggregateOnce(ctx, sn, path, pathStr, max)
		return err
	})
	return v, tm, err
}

// aggregateOnce is one attempt of the aggregate pipeline against a
// pinned readSnap; errUpdateConflict asks the entry point to wait for
// the unsettled batch and retry, errSnapshotSkew to re-pin and retry.
func (s *System) aggregateOnce(ctx context.Context, sn *readSnap, path *xpath.Path, pathStr string, max bool) (string, Timings, error) {
	// One pin covers both the index probe and the query fallback, so
	// both halves translate through the same transformer table.
	if sn.pending && sn.ring != nil {
		return "", Timings{}, ErrUpdatePending
	}
	tagKey := lastNamedTag(path)
	keys, unknown := cmpKeys(path)
	if tagKey != "" {
		keys = append(keys, tagKey)
	} else {
		unknown = true
	}
	if sn.bandConflict(s.Client, keys, unknown) {
		return "", Timings{}, errUpdateConflict
	}
	fastPath := tagKey != "" && !hasPredicates(path)
	if fastPath {
		if v, tm, ok, err := s.aggregateViaIndex(ctx, sn, tagKey, max); err != nil || ok {
			return v, tm, err
		}
	}
	// Fallback: full secure query, aggregate at the client.
	nodes, _, tm, err := s.queryAttempt(ctx, sn, path)
	if err != nil {
		return "", tm, err
	}
	if len(nodes) == 0 {
		return "", tm, fmt.Errorf("core: %s selects no values", pathStr)
	}
	var values []string
	for _, n := range nodes {
		values = append(values, xpath.StringValue(n))
	}
	return extremeOf(values, max), tm, nil
}

// aggregateViaIndex is the §6.4 single-block path: one probe of the
// value index, sent as a query (wire.Query.Probe) through the same
// execute every query takes — verified once at the read's floor, the
// extreme's block decrypted as it streams in, and with integrity on the
// probed bands' runs proving the extreme (or emptiness) itself.
// ok=false means the tag is not exclusively encrypted-and-indexed and
// the caller must fall back.
func (s *System) aggregateViaIndex(ctx context.Context, sn *readSnap, tagKey string, max bool) (string, Timings, bool, error) {
	var tm Timings
	start := time.Now()
	lo, hi, _, indexed := sn.view.AttributeDomainRange(tagKey)
	tm.ClientTranslate = time.Since(start)
	if !indexed || s.Client.TagOccursPlain(tagKey) {
		return "", tm, false, nil
	}

	qs := &wire.Query{Probe: &wire.Probe{Lo: lo, Hi: hi, Max: max}}
	ans, blocks, err := s.execute(ctx, sn.backend, sn.ring, sn.verSeq, qs, &tm)
	if err != nil {
		return "", tm, false, err
	}
	if s.updSeq.Load() != sn.updSeq {
		// The probe window came from the pinned transformer table; a
		// flush that raced the probe may have re-banded it. Re-pin.
		return "", tm, false, errSnapshotSkew
	}
	tm.AnswerBytes = ans.ByteSize()
	tm.BlocksShipped = len(ans.Blocks)
	tm.Transmit = s.Link.TransferTime(tm.AnswerBytes)
	tm.Generation, tm.Epoch = ans.Generation, ans.Epoch
	if len(ans.BlockIDs) == 0 {
		return "", tm, false, fmt.Errorf("core: no indexed values for %s", tagKey)
	}
	bid := ans.BlockIDs[0]

	start = time.Now()
	content, err := client.ReadBlock(blocks[bid])
	if err != nil {
		return "", tm, false, fmt.Errorf("core: aggregate block: %w", err)
	}
	values := valuesOfTag(content, tagKey)
	tm.ClientPost = time.Since(start)
	if len(values) == 0 {
		return "", tm, false, fmt.Errorf("core: block %d holds no %s values", bid, tagKey)
	}
	return extremeOf(values, max), tm, true, nil
}

// lastNamedTag returns the tag key of the path's last named step, or
// "" for wildcard/text endings.
func lastNamedTag(p *xpath.Path) string {
	for i := len(p.Steps) - 1; i >= 0; i-- {
		st := p.Steps[i]
		if st.Test.Text {
			continue
		}
		if st.Test.Wildcard {
			return ""
		}
		if st.Axis == xpath.AxisAttribute {
			return "@" + st.Test.Name
		}
		return st.Test.Name
	}
	return ""
}

func hasPredicates(p *xpath.Path) bool {
	for _, st := range p.Steps {
		if len(st.Preds) > 0 {
			return true
		}
	}
	return false
}

// valuesOfTag collects the leaf values of the given tag in a decrypted
// block's content (client.ReadBlock has dropped the decoy).
func valuesOfTag(n *xmltree.Node, tagKey string) []string {
	var out []string
	attr := false
	name := tagKey
	if len(tagKey) > 0 && tagKey[0] == '@' {
		attr = true
		name = tagKey[1:]
	}
	n.Walk(func(m *xmltree.Node) bool {
		switch {
		case attr && m.Kind == xmltree.Attribute && m.Tag == name:
			out = append(out, m.Value)
		case !attr && m.Kind == xmltree.Element && m.Tag == name && m.IsLeaf():
			out = append(out, m.LeafValue())
		}
		return true
	})
	return out
}

// extremeOf picks the min or max of values, numerically when every
// value parses as a number and lexicographically otherwise.
func extremeOf(values []string, max bool) string {
	numeric := true
	for _, v := range values {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			numeric = false
			break
		}
	}
	best := values[0]
	for _, v := range values[1:] {
		var less bool
		if numeric {
			a, _ := strconv.ParseFloat(v, 64)
			b, _ := strconv.ParseFloat(best, 64)
			less = a < b
		} else {
			less = bytes.Compare([]byte(v), []byte(best)) < 0
		}
		if less != max && v != best {
			best = v
		}
	}
	return best
}
