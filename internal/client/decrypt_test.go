package client

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/wire"
)

// naiveAnswer builds the "ship everything" answer (every hosted
// block, the full residue as one fragment) — the largest block set a
// client can be asked to decrypt for this database.
func naiveAnswer(db *wire.HostedDB) *wire.Answer {
	ans := &wire.Answer{Fragments: [][]byte{[]byte(db.Residue.String())}}
	for id, b := range db.Blocks {
		ans.BlockIDs = append(ans.BlockIDs, id)
		ans.Blocks = append(ans.Blocks, b)
	}
	return ans
}

// TestDecryptBlocksSurfacesError checks a corrupt block fails the
// whole decrypt, naming the block.
func TestDecryptBlocksSurfacesError(t *testing.T) {
	c, _, db := fixture(t)
	ans := naiveAnswer(db)
	if len(ans.Blocks) == 0 {
		t.Skip("no blocks")
	}
	last := len(ans.Blocks) - 1
	corrupted := append([]byte(nil), ans.Blocks[last]...)
	corrupted[len(corrupted)-1] ^= 0xff
	ans.Blocks[last] = corrupted
	_, err := c.DecryptBlocks(ans)
	if err == nil {
		t.Fatalf("corrupt block decrypted without error")
	}
	if want := fmt.Sprintf("block %d:", ans.BlockIDs[last]); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the corrupt block (%q)", err, want)
	}
}
