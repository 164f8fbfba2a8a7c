package difftest

import (
	"fmt"
	"testing"

	"repro/internal/authtree"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// roundTripAuthRoot is the reference build: the root of the Merkle tree
// over db after a MarshalDB/UnmarshalDB round trip, which is how
// wire.NewAuthState once canonicalized a database before hashing it.
func roundTripAuthRoot(db *wire.HostedDB) (authtree.Digest, error) {
	data, err := wire.MarshalDB(db)
	if err != nil {
		return authtree.Digest{}, err
	}
	canon, err := wire.UnmarshalDB(data)
	if err != nil {
		return authtree.Digest{}, err
	}
	st, err := wire.NewAuthState(canon, btree.NewIndex(db.IndexEntries))
	if err != nil {
		return authtree.Digest{}, err
	}
	return st.Root(), nil
}

// checkAuthRoot builds db's tree as it is and through the reference
// round trip and requires one root.
func checkAuthRoot(db *wire.HostedDB) error {
	st, err := wire.BuildAuthState(db)
	if err != nil {
		return err
	}
	want, err := roundTripAuthRoot(db)
	if err != nil {
		return err
	}
	if st.Root() != want {
		return fmt.Errorf("root %x, round-tripped build %x", st.Root(), want)
	}
	return nil
}

// TestAuthRootWithoutRoundTrip checks that building the Merkle tree
// straight from a database gives the root the round-tripped build
// gives, on every corpus document under every scheme and on a NASA and
// an XMark document: for the owner's pre-upload instance, for the
// server's snapshot, and for both again after one update batch, where
// the server's root must also match the fresh build.
func TestAuthRootWithoutRoundTrip(t *testing.T) {
	type doc struct {
		name string
		doc  *xmltree.Document
		scs  []string
	}
	var docs []doc
	for _, seed := range CorpusSeeds {
		c := GenCase(seed)
		docs = append(docs, doc{fmt.Sprintf("%s/%d", c.DocName, seed), c.Doc, c.SCs})
	}
	docs = append(docs,
		doc{"nasa", datagen.NASA(60, 2006), datagen.NASASCs()},
		doc{"xmark", datagen.XMark(30, 2006), datagen.XMarkSCs()})
	r := datagen.NewRand(0x61757468) // "auth"
	updated := 0
	for _, d := range docs {
		for _, name := range Schemes {
			sys, err := core.Host(d.doc.Clone(), d.scs, name, []byte("auth-root"))
			if err != nil {
				t.Fatalf("%s: host %s: %v", d.name, name, err)
			}
			if err := sys.EnableIntegrity(); err != nil {
				t.Fatalf("%s, %s: EnableIntegrity: %v", d.name, name, err)
			}
			srv := sys.Server.(core.Local).S
			check := func(stage string) {
				t.Helper()
				if err := checkAuthRoot(sys.HostedDB); err != nil {
					t.Fatalf("%s, %s, owner %s: %v", d.name, name, stage, err)
				}
				db := srv.CurrentDB()
				if err := checkAuthRoot(db); err != nil {
					t.Fatalf("%s, %s, server %s: %v", d.name, name, stage, err)
				}
				got, err := srv.AuthRoot()
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := roundTripAuthRoot(db); got != want {
					t.Fatalf("%s, %s, server %s: served root %x, round-tripped build %x", d.name, name, stage, got, want)
				}
			}
			check("at upload")
			edits := pickBatchEdits(r, d.doc, sys, 1)
			if len(edits) == 0 {
				continue // nothing updatable under this scheme
			}
			if n, err := sys.UpdateLeafValues(edits[0].q, edits[0].newVal); err != nil || n == 0 {
				t.Fatalf("%s, %s: update %q: %d edited, %v", d.name, name, edits[0].q, n, err)
			}
			updated++
			check("after an update")
		}
	}
	if updated == 0 {
		t.Fatal("no document was updatable under any scheme")
	}
	t.Logf("%d documents × %d schemes, %d updated", len(docs), len(Schemes), updated)
}
