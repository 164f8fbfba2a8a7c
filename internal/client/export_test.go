package client

import (
	"repro/internal/wire"
	"repro/internal/xpath"
)

// RefPostProcessFull and SamePostResult give the external assembly
// equivalence test (which drives whole hosted systems, so it cannot
// live in this package) the reference assembly and its comparison.
func RefPostProcessFull(c *Client, q *xpath.Path, ans *wire.Answer, blocks map[int][]byte) (*PostResult, error) {
	return refPostProcessFull(c, q, ans, blocks)
}

func SamePostResult(got, want *PostResult) error { return samePostResult(got, want) }
