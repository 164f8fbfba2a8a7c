// Package secxml is the public API of this library: a from-scratch
// implementation of "Efficient Secure Query Evaluation over
// Encrypted XML Databases" (Wang & Lakshmanan, VLDB 2006).
//
// The database-as-service model: a data owner declares security
// constraints over an XML document, encrypts the sensitive parts at
// a chosen granularity, uploads ciphertext blocks plus structural
// (DSI) and value (OPESS index) metadata to an untrusted server,
// and evaluates XPath queries so that the server prunes work without
// ever learning the protected structure, values or associations.
//
// Quick start:
//
//	doc, _ := secxml.ParseDocument(strings.NewReader(xmlData))
//	db, _ := secxml.Host(doc, []string{
//	    "//insurance",                        // protect whole subtrees
//	    "//patient:(/pname, //disease)",      // protect an association
//	}, secxml.Options{MasterKey: []byte("secret"), Scheme: secxml.SchemeOptimal})
//	res, _ := db.Query("//patient[.//disease='diarrhea']/pname")
//	fmt.Println(res.Values())
package secxml

import (
	"context"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/remote"
	"repro/internal/sc"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Scheme names selecting the encryption granularity (§7.1 of the
// paper). Optimal minimizes total encrypted size via exact weighted
// vertex cover on the constraint graph (NP-hard in general);
// Approx uses Clarkson's 2-approximation; Sub encrypts the parents
// of the optimal blocks; Top encrypts the whole document; Leaf
// encrypts each protected leaf individually (with decoys).
const (
	SchemeOptimal = "opt"
	SchemeApprox  = "app"
	SchemeSub     = "sub"
	SchemeTop     = "top"
	SchemeLeaf    = "leaf"
)

// Options configures Host.
type Options struct {
	// MasterKey is the owner's secret; all keys derive from it.
	// Required.
	MasterKey []byte
	// Scheme is one of the Scheme* constants; default SchemeOptimal.
	Scheme string
	// BandwidthMbps simulates the client-server link for the timing
	// breakdown; default 100 (the paper's LAN).
	BandwidthMbps float64
}

// Document is a parsed XML document in the paper's leaf-value data
// model (values only at leaves; no mixed content).
type Document struct {
	doc *xmltree.Document
}

// ParseDocument reads an XML document.
func ParseDocument(r io.Reader) (*Document, error) {
	d, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Document{doc: d}, nil
}

// String returns the compact XML serialization.
func (d *Document) String() string { return d.doc.String() }

// ByteSize returns the serialized size in bytes.
func (d *Document) ByteSize() int { return d.doc.ByteSize() }

// NumNodes returns the number of nodes (elements, attributes, text).
func (d *Document) NumNodes() int { return d.doc.Size() }

// Depth returns the element depth of the tree.
func (d *Document) Depth() int { return d.doc.Depth() }

// Evaluate runs an XPath query directly on the plaintext document
// (no hosting involved); useful for validation and testing.
func (d *Document) Evaluate(query string) ([]string, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return core.ResultStrings(xpath.Evaluate(d.doc, p)), nil
}

// Database is a hosted encrypted database: the owner's client state
// and the untrusted server, wired through a simulated link.
type Database struct {
	sys *core.System
}

// Host encrypts the document under the options' scheme, enforcing
// the given security constraints (strings in the paper's syntax:
// "p" or "p:(q1, q2)"), and boots an in-process server on the
// upload.
func Host(doc *Document, constraints []string, opts Options) (*Database, error) {
	name := opts.Scheme
	if name == "" {
		name = SchemeOptimal
	}
	sys, err := core.Host(doc.doc, constraints, core.SchemeName(name), opts.MasterKey)
	if err != nil {
		return nil, err
	}
	if opts.BandwidthMbps > 0 {
		sys.Link = netsim.Link{BandwidthMbps: opts.BandwidthMbps, LatencyMs: sys.Link.LatencyMs}
	}
	return &Database{sys: sys}, nil
}

// HostRemote encrypts the document exactly like Host, but uploads
// the ciphertext and metadata to a running server (cmd/xserve) at
// baseURL under dbName and routes every subsequent Query / Min /
// Max / Update over HTTP. Keys never leave this process. The
// transport retries transient failures with backoff and fails fast
// through a circuit breaker while the server is down (see
// internal/remote); the upload itself is bounded by ctx.
func HostRemote(ctx context.Context, doc *Document, constraints []string, opts Options, baseURL, dbName string) (*Database, error) {
	db, err := Host(doc, constraints, opts)
	if err != nil {
		return nil, err
	}
	cl := remote.Dial(baseURL, dbName)
	if err := cl.Upload(ctx, db.sys.HostedDB); err != nil {
		return nil, err
	}
	db.sys.UseBackend(cl)
	return db, nil
}

// Timings is the per-stage cost breakdown of one query round trip.
type Timings struct {
	ClientTranslate time.Duration
	ServerExec      time.Duration
	Transmit        time.Duration
	ClientDecrypt   time.Duration
	ClientPost      time.Duration
	AnswerBytes     int
	BlocksShipped   int
	// PlanStrategy reports which server execution strategy produced
	// the answer: "twig" (holistic twig match over the structure
	// synopsis) or "pairwise" (per-step interval joins). Empty when
	// the backend predates the planner.
	// PlanEstimate is the planner's admission-cost estimate.
	PlanStrategy string
	PlanEstimate int64
}

// Total sums all stages.
func (t Timings) Total() time.Duration {
	return t.ClientTranslate + t.ServerExec + t.Transmit + t.ClientDecrypt + t.ClientPost
}

// Result holds a query's outcome.
type Result struct {
	nodes   []*xmltree.Node
	Timings Timings
}

// Count returns the number of result nodes.
func (r *Result) Count() int { return len(r.nodes) }

// Values returns the XPath string-value of each result node.
func (r *Result) Values() []string {
	out := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = xpath.StringValue(n)
	}
	return out
}

// XML returns each result node serialized as XML.
func (r *Result) XML() []string { return core.ResultStrings(r.nodes) }

// Query evaluates an XPath query through the full secure pipeline:
// client translation, server-side structural and value-index
// pruning, transmission, decryption and post-processing. The result
// equals evaluating the query on the plaintext document.
func (db *Database) Query(query string) (*Result, error) {
	nodes, _, tm, err := db.sys.Query(query)
	if err != nil {
		return nil, err
	}
	return &Result{nodes: nodes, Timings: convertTimings(tm)}, nil
}

// Min evaluates MIN over the leaf values the path selects. When the
// target is encrypted and indexed, the order-preserving value index
// answers with a single server probe and one shipped block (§6.4).
func (db *Database) Min(path string) (string, Timings, error) {
	v, tm, err := db.sys.AggregateMinMax(path, false)
	return v, convertTimings(tm), err
}

// Max is Min's counterpart for MAX.
func (db *Database) Max(path string) (string, Timings, error) {
	v, tm, err := db.sys.AggregateMinMax(path, true)
	return v, convertTimings(tm), err
}

// Update sets the value of every leaf the path selects to newValue,
// re-encrypting the affected blocks and re-issuing the touched
// attributes' index bands (the paper's future-work extension; only
// encrypted targets are supported). It returns the number of values
// changed.
func (db *Database) Update(path, newValue string) (int, error) {
	return db.sys.UpdateLeafValues(path, newValue)
}

// NaiveQuery evaluates the query with the baseline of §7.3: the
// server ships the entire database and the client does everything.
func (db *Database) NaiveQuery(query string) (*Result, error) {
	nodes, _, tm, err := db.sys.NaiveQuery(query)
	if err != nil {
		return nil, err
	}
	return &Result{nodes: nodes, Timings: convertTimings(tm)}, nil
}

func convertTimings(tm core.Timings) Timings {
	return Timings{
		ClientTranslate: tm.ClientTranslate,
		ServerExec:      tm.ServerExec,
		Transmit:        tm.Transmit,
		ClientDecrypt:   tm.ClientDecrypt,
		ClientPost:      tm.ClientPost,
		AnswerBytes:     tm.AnswerBytes,
		BlocksShipped:   tm.BlocksShipped,
		PlanStrategy:    tm.PlanStrategy,
		PlanEstimate:    tm.PlanEstimate,
	}
}

// Stats describes the hosted database.
type Stats struct {
	Scheme          string
	NumBlocks       int
	SchemeSize      int // Definition 4.1's node-count size measure
	HostedBytes     int // total upload size
	IndexEntries    int
	DSITableEntries int
	EncryptTime     time.Duration
	CoverTags       []string // association endpoints chosen for encryption
}

// Stats returns size and shape information about the hosted
// database — everything the experiments of §7.4 report.
func (db *Database) Stats() Stats {
	sys := db.sys
	var cover []string
	for tag := range sys.Scheme.CoverTags {
		cover = append(cover, tag)
	}
	sort.Strings(cover)
	return Stats{
		Scheme:          sys.Scheme.Name,
		NumBlocks:       sys.Scheme.NumBlocks(),
		SchemeSize:      sys.Scheme.Size(),
		HostedBytes:     sys.HostedDB.ByteSize(),
		IndexEntries:    len(sys.HostedDB.IndexEntries),
		DSITableEntries: sys.HostedDB.Table.NumEntries(),
		EncryptTime:     sys.EncryptTime,
		CoverTags:       cover,
	}
}

// ServerView is everything an attacker who compromises the server
// can observe: the plaintext residue, the DSI table labels
// (encrypted tags are opaque tokens), per-block ciphertext sizes,
// and the value-index ciphertext frequency distribution. Inspecting
// it is how an owner audits what a hosting provider could learn.
type ServerView struct {
	ResidueXML           string
	DSILabels            []string
	BlockCiphertextSizes []int
	// IndexFrequencies lists, per distinct ciphertext key in the
	// value index, its number of entries — the distribution the
	// frequency-based attacker works from.
	IndexFrequencies []int
}

// ServerView returns the attacker-observable state of the hosted
// database.
func (db *Database) ServerView() ServerView {
	hdb := db.sys.HostedDB
	var view ServerView
	view.ResidueXML = hdb.Residue.String()
	for label := range hdb.Table.ByTag {
		view.DSILabels = append(view.DSILabels, label)
	}
	sort.Strings(view.DSILabels)
	for _, b := range hdb.Blocks {
		view.BlockCiphertextSizes = append(view.BlockCiphertextSizes, len(b))
	}
	freq := map[uint64]int{}
	for _, e := range hdb.IndexEntries {
		freq[e.Key]++
	}
	for _, n := range freq {
		view.IndexFrequencies = append(view.IndexFrequencies, n)
	}
	sort.Ints(view.IndexFrequencies)
	return view
}

// Validate checks that a query is in the supported XPath subset
// without running it.
func Validate(query string) error {
	_, err := xpath.Parse(query)
	return err
}

// ValidateConstraint checks a security-constraint string.
func ValidateConstraint(spec string) error {
	_, err := sc.Parse(spec)
	return err
}
