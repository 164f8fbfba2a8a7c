package wire

import (
	crand "crypto/rand"
	"encoding/binary"
)

// NewRequestID returns a fresh nonzero random request ID for an
// UpdateBatch. IDs come from the system CSPRNG so they are
// unpredictable and collision-free for any realistic dedup window,
// and — being independent of the batch's content — reveal nothing to
// the untrusted server.
func NewRequestID() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			panic("wire: system randomness unavailable: " + err.Error())
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}
