package cryptoprim

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewKeySetRejectsEmpty(t *testing.T) {
	if _, err := NewKeySet(nil); err == nil {
		t.Errorf("empty master key accepted")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	ks := MustKeySet("master")
	for _, pt := range [][]byte{
		[]byte(""),
		[]byte("x"),
		[]byte("<patient><pname>Betty</pname></patient>"),
		bytes.Repeat([]byte("abc123"), 10000),
	} {
		ct, err := ks.EncryptBlock(pt)
		if err != nil {
			t.Fatalf("encrypt: %v", err)
		}
		got, err := ks.DecryptBlock(ct)
		if err != nil {
			t.Fatalf("decrypt: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip mismatch for %d bytes", len(pt))
		}
		if len(ct) != len(pt)+ks.CiphertextOverhead() {
			t.Errorf("ciphertext length %d, want %d", len(ct), len(pt)+ks.CiphertextOverhead())
		}
	}
}

func TestBlockEncryptionIsRandomized(t *testing.T) {
	ks := MustKeySet("master")
	pt := []byte("same plaintext")
	c1, _ := ks.EncryptBlock(pt)
	c2, _ := ks.EncryptBlock(pt)
	if bytes.Equal(c1, c2) {
		t.Errorf("two encryptions of the same block are identical")
	}
}

func TestBlockDecryptAuthenticates(t *testing.T) {
	ks := MustKeySet("master")
	ct, _ := ks.EncryptBlock([]byte("data"))
	ct[len(ct)-1] ^= 1
	if _, err := ks.DecryptBlock(ct); err == nil {
		t.Errorf("tampered ciphertext decrypted")
	}
	if _, err := ks.DecryptBlock(ct[:4]); err == nil {
		t.Errorf("truncated ciphertext decrypted")
	}
}

func TestBlockKeysDiffer(t *testing.T) {
	k1 := MustKeySet("k1")
	k2 := MustKeySet("k2")
	ct, _ := k1.EncryptBlock([]byte("secret"))
	if _, err := k2.DecryptBlock(ct); err == nil {
		t.Errorf("wrong key decrypted ciphertext")
	}
}

func TestTagCipherDeterministic(t *testing.T) {
	ks := MustKeySet("master")
	a := ks.EncryptTag("SSN")
	b := ks.EncryptTag("SSN")
	if a != b {
		t.Errorf("tag cipher not deterministic: %s vs %s", a, b)
	}
	if a == "SSN" {
		t.Errorf("tag not encrypted")
	}
	if ks.EncryptTag("pname") == a {
		t.Errorf("distinct tags collide")
	}
	other := MustKeySet("other")
	if other.EncryptTag("SSN") == a {
		t.Errorf("tag ciphertext independent of key")
	}
}

func TestTagCipherYieldsLegalXMLName(t *testing.T) {
	ks := MustKeySet("master")
	for _, tag := range []string{"SSN", "patient", "@coverage", "treat", "a b c"} {
		e := ks.EncryptTag(tag)
		if len(e) == 0 || !(e[0] == 'T') {
			t.Errorf("encrypted tag %q does not start with letter", e)
		}
		if strings.ContainsAny(e, " <>&\"'=/") {
			t.Errorf("encrypted tag %q contains illegal characters", e)
		}
	}
}

func TestRandomDecoyDistinct(t *testing.T) {
	ks := MustKeySet("master")
	seen := map[string]bool{}
	for i := uint64(0); i < 1000; i++ {
		d := ks.RandomDecoy(i)
		if seen[d] {
			t.Fatalf("decoy %d repeats", i)
		}
		seen[d] = true
	}
}

func TestDSIWeightRange(t *testing.T) {
	ks := MustKeySet("master")
	for i := 0; i < 200; i++ {
		for side := 1; side <= 2; side++ {
			w := ks.DSIWeight("sig", i, side)
			if w <= 0 || w >= 0.5 {
				t.Fatalf("weight %f out of (0, 0.5)", w)
			}
		}
	}
	if ks.DSIWeight("a", 0, 1) == ks.DSIWeight("b", 0, 1) {
		t.Errorf("weights identical across signatures")
	}
}

func TestOPESSRandRange(t *testing.T) {
	ks := MustKeySet("master")
	for i := 0; i < 100; i++ {
		r := ks.OPESSRand("age", "w", i)
		if r < 0 || r >= 1 {
			t.Fatalf("OPESSRand out of [0,1): %f", r)
		}
	}
}

func TestOPEOrderPreserving(t *testing.T) {
	ks := MustKeySet("master")
	ope := NewOPE(ks, 6)
	vals := []float64{-1000.5, -1, -0.000001, 0, 0.000001, 1, 23, 23.45, 24.35, 90, 1001, 1e7}
	var prev uint64
	for i, v := range vals {
		c, err := ope.Encrypt(v)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", v, err)
		}
		if i > 0 && c <= prev {
			t.Errorf("order violated: E(%v)=%d <= E(%v)=%d", v, c, vals[i-1], prev)
		}
		prev = c
	}
}

func TestOPEDeterministic(t *testing.T) {
	ks := MustKeySet("master")
	ope := NewOPE(ks, 2)
	a, _ := ope.Encrypt(42.5)
	b, _ := ope.Encrypt(42.5)
	if a != b {
		t.Errorf("OPE not deterministic")
	}
	ope2 := NewOPE(MustKeySet("other"), 2)
	c, _ := ope2.Encrypt(42.5)
	if c == a {
		t.Errorf("OPE key-independent")
	}
}

func TestOPERangeBounds(t *testing.T) {
	ks := MustKeySet("master")
	ope := NewOPE(ks, 3)
	v := 123.456
	c, _ := ope.Encrypt(v)
	lo, _ := ope.MinCipherFor(v)
	hi, _ := ope.MaxCipherFor(v)
	if c < lo || c > hi {
		t.Errorf("ciphertext %d outside [MinCipherFor, MaxCipherFor] = [%d, %d]", c, lo, hi)
	}
	// Anything strictly below v encrypts strictly below MinCipherFor(v).
	cb, _ := ope.Encrypt(v - 0.001)
	if cb >= lo {
		t.Errorf("E(v-eps)=%d >= MinCipherFor(v)=%d", cb, lo)
	}
	ca, _ := ope.Encrypt(v + 0.001)
	if ca <= hi {
		t.Errorf("E(v+eps)=%d <= MaxCipherFor(v)=%d", ca, hi)
	}
}

func TestOPERejectsOutOfRange(t *testing.T) {
	ks := MustKeySet("master")
	ope := NewOPE(ks, 6)
	for _, v := range []float64{1e40, -1e40} {
		if _, err := ope.Encrypt(v); err == nil {
			t.Errorf("Encrypt(%v) should fail", v)
		}
	}
}

// Property: OPE preserves order on arbitrary pairs within range.
func TestQuickOPEMonotone(t *testing.T) {
	ks := MustKeySet("quick")
	ope := NewOPE(ks, 3)
	f := func(a, b int32) bool {
		va, vb := float64(a)/7.0, float64(b)/7.0
		ca, err1 := ope.Encrypt(va)
		cb, err2 := ope.Encrypt(vb)
		if err1 != nil || err2 != nil {
			return false
		}
		xa, _ := ope.ToFixed(va)
		xb, _ := ope.ToFixed(vb)
		switch {
		case xa < xb:
			return ca < cb
		case xa > xb:
			return ca > cb
		default:
			return ca == cb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPRFStable(t *testing.T) {
	ks := MustKeySet("master")
	a := ks.PRFUint64("x", []byte("data"))
	b := ks.PRFUint64("x", []byte("data"))
	if a != b {
		t.Errorf("PRF not deterministic")
	}
	if ks.PRFUint64("y", []byte("data")) == a {
		t.Errorf("PRF label ignored")
	}
}

// TestMerkleHashesAreThePrefixedSHA256: the leaf and node hashes are
// SHA-256 over (domain prefix || input) whichever way they are
// computed — from the stack buffer short leaves take, or from the
// streaming hasher long ones fall back to. Every committed root and
// every proof in flight depends on these bytes not moving.
func TestMerkleHashesAreThePrefixedSHA256(t *testing.T) {
	for _, n := range []int{0, 1, 55, 56, 64, leafStackMax - 1, leafStackMax, leafStackMax + 1, 10_000} {
		data := bytes.Repeat([]byte{0xA7}, n)
		for i := range data {
			data[i] ^= byte(i)
		}
		want := sha256.Sum256(append([]byte{0x00}, data...))
		if got := MerkleLeafHash(data); got != want {
			t.Errorf("MerkleLeafHash(%d bytes) = %x, want %x", n, got[:8], want[:8])
		}
	}
	l, r := MerkleLeafHash([]byte("l")), MerkleLeafHash([]byte("r"))
	want := sha256.Sum256(append(append([]byte{0x01}, l[:]...), r[:]...))
	if got := MerkleNodeHash(l, r); got != want {
		t.Errorf("MerkleNodeHash = %x, want %x", got[:8], want[:8])
	}
}
