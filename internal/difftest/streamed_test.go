package difftest

import "testing"

// streamedCorpusSeeds is the subset of the fixed corpus the streamed
// harness runs on every `go test`: each case spins up five HTTP
// servers (one per scheme) and runs two full passes, so the whole
// corpus would dominate the package's runtime for little extra
// coverage — the protocol is the same for every seed.
var streamedCorpusSeeds = []uint64{1, 2, 1785901620815951921, 1785901796407847193}

// TestStreamedDifferentialCorpus runs the streamed differential
// harness on the fixed seed subset: streamed answers and plaintext
// evaluation must agree, cold and when answered from the server's
// caches.
func TestStreamedDifferentialCorpus(t *testing.T) {
	seeds := streamedCorpusSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		c := GenCase(seed)
		t.Run(c.DocName+"/"+itoa(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunCaseStreamed(c); err != nil {
				t.Error(err)
			}
		})
	}
}
