package cryptoprim

import "crypto/sha256"

// Unkeyed digest primitives for the answer-integrity layer
// (internal/authtree). They live here with the other crypto
// primitives so the domain-separation discipline is defined in one
// place: a Merkle leaf hash can never collide with an interior-node
// hash (the classic second-preimage defence), because the two are
// computed over disjoint prefix domains.

// DigestSize is the byte width of every integrity digest (SHA-256).
const DigestSize = sha256.Size

// Digest is one SHA-256 output.
type Digest = [DigestSize]byte

// Domain-separation prefixes for Merkle hashing.
const (
	merkleLeafPrefix = 0x00
	merkleNodePrefix = 0x01
)

// leafStackMax is the longest leaf hashed from a stack buffer: most
// block and fragment leaves are a few hundred bytes, and the streaming
// hasher costs a heap object per call.
const leafStackMax = 512

// MerkleLeafHash hashes canonical leaf data into its leaf digest:
// SHA-256(0x00 || data).
func MerkleLeafHash(data []byte) Digest {
	if len(data) <= leafStackMax {
		var buf [1 + leafStackMax]byte
		buf[0] = merkleLeafPrefix
		n := copy(buf[1:], data)
		return sha256.Sum256(buf[:1+n])
	}
	h := sha256.New()
	h.Write([]byte{merkleLeafPrefix})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

// MerkleNodeHash combines two child digests into their parent:
// SHA-256(0x01 || left || right), allocation-free: it runs once per
// interior node of every tree build and proof check.
func MerkleNodeHash(l, r Digest) Digest {
	var buf [1 + 2*DigestSize]byte
	buf[0] = merkleNodePrefix
	copy(buf[1:], l[:])
	copy(buf[1+DigestSize:], r[:])
	return sha256.Sum256(buf[:])
}
