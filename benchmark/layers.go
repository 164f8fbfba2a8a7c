package main

// Every call into repro/internal/* is in this file, so that an API
// rename in the system costs a one-file change here. The rest of the
// benchmark sees strings, counts and durations.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultfs"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/walog"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const (
	// docSeed fixes the hosted document: --seed shapes the traffic, not
	// the database, so byte and block counts are comparable across seeds.
	docSeed = 2006
	dbName  = "bench"
	// streamCutoff mirrors the service's default: answers at least this
	// large leave as an SXS1 stream, smaller ones as an envelope.
	streamCutoff = 64 << 10
)

// setupPhases times one set-up, phase by phase.
type setupPhases struct {
	Gen, Host, Encrypt, Integrity, Upload, Total time.Duration
	Fsyncs                                       int64
}

// quietDisk is the filesystem the service under test runs on: the real
// one, except that an fsync of a file or a directory is counted and
// returns at once. The service keeps its default flush policy, so it
// asks for exactly the fsyncs it always does; what is taken out is how
// long the sandbox's shared disk makes each one wait, which in one
// hour of sizing drifted between 0.2 and 8 ms and is the disk's
// property, not the system's. The count is reported per update and per
// set-up, and walFloor reports what one fsync costs on the real disk.
type quietDisk struct {
	faultfs.OS
	fsyncs atomic.Int64
}

type quietFile struct {
	faultfs.File
	disk *quietDisk
}

func (d *quietDisk) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := d.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &quietFile{File: f, disk: d}, nil
}

func (d *quietDisk) SyncDir(string) error { d.fsyncs.Add(1); return nil }

func (f *quietFile) Sync() error { f.disk.fsyncs.Add(1); return nil }

// stack is the system under test: the owner's core.System talking over
// loopback HTTP to a durable remote service, plus the plaintext model
// document every answer is checked against.
type stack struct {
	sys       *core.System
	model     *xmltree.Document
	svc       *remote.Service
	ts        *httptest.Server
	dir       string
	disk      *quietDisk
	userBytes int
	phases    setupPhases
	edited    map[string]bool // queries of the leaves updates have rewritten
}

// buildStack runs the full set-up in dir: generate the NASA document,
// host it under the optimal scheme, commit to it with a Merkle tree,
// upload it to a durable service with default options (fsync on every
// commit, no group wait, checkpoint every 64 updates; default caches,
// planner and admission) on a quietDisk, and point the owner at it
// through a streaming, verifying client.
func buildStack(docBytes int, dir string) (*stack, error) {
	st := &stack{dir: dir, disk: &quietDisk{}, edited: map[string]bool{}}
	t0 := time.Now()
	doc := datagen.NASAToSize(docBytes, docSeed)
	st.userBytes = doc.ByteSize()
	st.model = doc.Clone()
	t1 := time.Now()
	sys, err := core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("benchmark-owner-key"))
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	t2 := time.Now()
	if err := sys.EnableIntegrity(); err != nil {
		return nil, fmt.Errorf("integrity: %w", err)
	}
	t3 := time.Now()
	st.sys = sys
	if err := st.serve(); err != nil {
		return nil, err
	}
	// Upload writes one file per block; the default 15 s retry budget
	// has proved too short for that, so the upload (and only the upload)
	// gets three minutes per attempt and in total.
	up := remote.Dial(st.ts.URL, dbName).WithHTTPClient(st.ts.Client()).
		WithTimeout(3 * time.Minute).
		WithRetry(remote.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, Multiplier: 2, Budget: 3 * time.Minute})
	if err := up.Upload(context.Background(), sys.HostedDB); err != nil {
		st.close()
		return nil, fmt.Errorf("upload: %w", err)
	}
	t4 := time.Now()
	st.dial()
	st.phases = setupPhases{Gen: t1.Sub(t0), Host: t2.Sub(t1), Encrypt: sys.EncryptTime,
		Integrity: t3.Sub(t2), Upload: t4.Sub(t3), Total: t4.Sub(t0), Fsyncs: st.disk.fsyncs.Load()}
	return st, nil
}

// serve opens (or, on a directory that already holds a database,
// recovers) the durable service and puts it behind a loopback server.
func (st *stack) serve() error {
	svc, err := remote.NewPersistentServiceOpts(st.dir, remote.PersistOptions{FS: st.disk})
	if err != nil {
		return fmt.Errorf("open service: %w", err)
	}
	st.svc, st.ts = svc, httptest.NewServer(svc)
	return nil
}

// dial points the owner at the service with the client every query and
// update of the run goes through: default retry policy and breaker.
func (st *stack) dial() {
	st.sys.UseBackend(remote.Dial(st.ts.URL, dbName).WithHTTPClient(st.ts.Client()).
		WithStreaming(true).WithVerifier(st.sys.Verifier()))
}

func (st *stack) close() {
	st.ts.Close()
	st.svc.Close()
}

// reopen closes the service and boots a new one from the same
// directory, which takes the recovery path (snapshot, block files, WAL
// replay, root cross-check), then re-dials.
func (st *stack) reopen() error {
	st.close()
	if err := st.serve(); err != nil {
		return err
	}
	st.dial()
	return nil
}

// facts extracts what the generators need from the model document.
func (st *stack) facts() []datasetFacts {
	var out []datasetFacts
	for _, ds := range st.model.Root.ElementChildren() {
		var d datasetFacts
		for _, c := range ds.ElementChildren() {
			switch c.Tag {
			case "altname":
				d.Altname = c.LeafValue()
			case "date":
				d.Date = c.LeafValue()
			case "publisher":
				d.Publisher = c.LeafValue()
			case "age":
				d.Age = c.LeafValue()
			case "author":
				for _, a := range c.ElementChildren() {
					if a.Tag == "last" {
						d.Lasts = append(d.Lasts, a.LeafValue())
					} else if a.Tag == "initial" {
						d.Initials = append(d.Initials, a.LeafValue())
					}
				}
			case "reference":
				for _, r := range c.ElementChildren() {
					if r.Tag == "journal" {
						d.Journal = r.LeafValue()
					}
				}
			case "keywords":
				for _, k := range c.ElementChildren() {
					d.Keywords = append(d.Keywords, k.LeafValue())
				}
			}
		}
		out = append(out, d)
	}
	return out
}

// storedBytes is what the server holds for the database.
func (st *stack) storedBytes() int { return st.sys.HostedDB.ByteSize() }

// oracleCounts returns how many results each query has on the model
// document as generated. Plaintext evaluation walks the whole document
// per query, which for a few thousand frames costs more than the
// measured window, so the counts are kept in cacheDir under the
// document's hash: the first run in a checkout computes them, later
// runs load them. Call it before any update.
func (st *stack) oracleCounts(queries []string, cacheDir string) (map[string]int, error) {
	sum := sha256.Sum256([]byte(st.model.String()))
	path := filepath.Join(cacheDir, fmt.Sprintf("oracle-%x.json", sum[:8]))
	counts := map[string]int{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &counts); err != nil {
			counts = map[string]int{} // a damaged cache is recomputed
		}
	}
	missing := 0
	for _, q := range queries {
		if _, ok := counts[q]; ok {
			continue
		}
		want, err := st.oracle(q)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q, err)
		}
		counts[q] = len(want)
		missing++
	}
	if missing == 0 {
		return counts, nil
	}
	data, err := json.Marshal(counts)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(cacheDir, "oracle-*.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	return counts, os.Rename(tmp.Name(), path)
}

// evalModel evaluates q on the plaintext model document.
func (st *stack) evalModel(q string) ([]*xmltree.Node, error) {
	p, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return xpath.Evaluate(st.model, p), nil
}

// oracle is what q must return: the model's result strings, sorted.
func (st *stack) oracle(q string) ([]string, error) {
	nodes, err := st.evalModel(q)
	if err != nil {
		return nil, err
	}
	out := core.ResultStrings(nodes)
	sort.Strings(out)
	return out, nil
}

// answer is what one query returned, as far as the benchmark looks.
type answer struct {
	Count         int
	Bytes, Blocks int
	Strings       []string // sorted result strings, only when asked for
}

// errNotLive marks an answer that arrived without an error but is not
// a verified live one; it counts as a failed operation.
var errNotLive = errors.New("answer is stale, unverified or degraded")

// runQuery sends q through sys and reports what came back.
func runQuery(sys *core.System, q string, wantStrings bool) (answer, error) {
	nodes, _, tm, err := sys.QueryContext(context.Background(), q)
	if err != nil {
		return answer{}, err
	}
	if tm.Stale || tm.Unverified || tm.Degraded {
		return answer{}, errNotLive
	}
	a := answer{Count: len(nodes), Bytes: tm.AnswerBytes, Blocks: tm.BlocksShipped}
	if wantStrings {
		a.Strings = core.ResultStrings(nodes)
		sort.Strings(a.Strings)
	}
	return a, nil
}

func (st *stack) query(q string, wantStrings bool) (answer, error) {
	return runQuery(st.sys, q, wantStrings)
}

// update sets the single leaf q selects to value; it returns when the
// service has acknowledged, which it does only after the WAL fsync,
// and then mirrors the edit onto the model document. roundTrip is the
// part of the wall time spent in the backend call (HTTP, server apply,
// fsync wait); the rest is the owner's read half, re-encryption and
// table rewrite. Only one goroutine may update at a time.
func (st *stack) update(q, value string) (roundTrip time.Duration, err error) {
	n, tm, err := st.sys.UpdateLeafValuesTimed(context.Background(), q, value)
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("%d leaves edited, want 1", n)
	}
	leaves, err := st.evalModel(q)
	if err != nil {
		return 0, err
	}
	for _, leaf := range leaves {
		leaf.SetLeafValue(value)
	}
	st.edited[q] = true
	return tm.UpdateApply, nil
}

// checkpointEvery is the durable service's default checkpoint period,
// in updates (remote.PersistOptions.CheckpointEvery left at zero).
const checkpointEvery = 64

// svcStats is the part of the service's /stats document the benchmark
// takes deltas of.
type svcStats struct {
	Blocks       int `json:"blocks"`
	IndexEntries int `json:"indexEntries"`
	Caches       map[string]struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
	} `json:"caches"`
	Planner struct {
		Twig            int64 `json:"twig"`
		Pairwise        int64 `json:"pairwise"`
		PrunedIntervals int64 `json:"prunedIntervals"`
	} `json:"planner"`
	Stream struct {
		Answers int64 `json:"answers"`
		Chunks  int64 `json:"chunks"`
	} `json:"stream"`
	Updates struct {
		Singles int64 `json:"singles"`
	} `json:"updates"`
	Durability struct {
		WalSyncs        int64 `json:"walSyncs"`
		SinceCheckpoint int64 `json:"sinceCheckpoint"`
	} `json:"durability"`
	Overload struct {
		Rejected int64 `json:"rejected"`
	} `json:"overload"`
}

func (st *stack) stats() (svcStats, error) {
	var s svcStats
	resp, err := st.ts.Client().Get(st.ts.URL + "/db/" + dbName + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// walFloor appends and fsyncs n update-sized records one at a time to
// a scratch log under dir, on the real filesystem, and returns the mean
// microseconds per record: what the device adds to every fsync the
// quietDisk counted.
func walFloor(dir string, n int) (float64, error) {
	scratch := filepath.Join(dir, "walfloor")
	defer os.RemoveAll(scratch)
	log, _, err := walog.Open(scratch, walog.Options{})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	payload := bytes.Repeat([]byte{0xA5}, 2048)
	start := time.Now()
	for i := 0; i < n; i++ {
		tk, err := log.Append(walog.Record{Epoch: 1, Gen: uint64(i + 1), Type: 1, Payload: payload})
		if err != nil {
			return 0, err
		}
		if err := tk.Wait(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n), nil
}

// twins are three more servers over a copy of the hosted database, so
// that none of the traced pass's three replays warms another's caches:
// an owner over loopback HTTP, an owner over an in-process backend, and
// the bare layers wired by hand.
type twins struct {
	http, local *core.System
	pipe        *pipeline
	ts          *httptest.Server
}

// owner builds a second core.System over the same client state (keys,
// OPESS tables) and hosted bytes, with its own integrity ring.
func (st *stack) owner(b core.Backend) (*core.System, error) {
	o := &core.System{Client: st.sys.Client, Server: b, Link: st.sys.Link,
		Scheme: st.sys.Scheme, HostedDB: st.sys.HostedDB}
	return o, o.EnableIntegrity()
}

func copyDB(db *wire.HostedDB) (*wire.HostedDB, error) {
	data, err := wire.MarshalDB(db)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalDB(data)
}

func (st *stack) newTwins() (*twins, error) {
	localDB, err := copyDB(st.sys.HostedDB)
	if err != nil {
		return nil, err
	}
	pipeDB, err := copyDB(st.sys.HostedDB)
	if err != nil {
		return nil, err
	}
	tw := &twins{}
	if tw.local, err = st.owner(core.Local{S: server.New(localDB)}); err != nil {
		return nil, err
	}
	auth, err := wire.BuildAuthState(pipeDB)
	if err != nil {
		return nil, err
	}
	tw.pipe = &pipeline{cl: st.sys.Client, view: st.sys.Client.Snapshot(),
		srv: server.New(pipeDB), verifier: auth.Verifier()}

	// The HTTP twin needs no disk: queries never touch the WAL.
	svc := remote.NewService()
	if err := remote.RegisterLocal(svc, dbName, st.sys.HostedDB); err != nil {
		return nil, err
	}
	tw.ts = httptest.NewServer(svc)
	if tw.http, err = st.owner(nil); err != nil {
		tw.ts.Close()
		return nil, err
	}
	tw.http.UseBackend(remote.Dial(tw.ts.URL, dbName).WithHTTPClient(tw.ts.Client()).
		WithStreaming(true).WithVerifier(tw.http.Verifier()))
	return tw, nil
}

func (tw *twins) close() { tw.ts.Close() }

// pipeline is the query path with every layer called through its public
// function, so a span can go around each.
type pipeline struct {
	cl       *client.Client
	view     *client.View
	srv      *server.Server
	verifier *wire.AuthVerifier
}

// layerCounts are the counts taken at the same boundaries as the spans.
type layerCounts struct {
	Results, QueryBytes, Ranges, ProofBytes, BlockBytes int
}

// Span names of the pipeline; the layer is the package name.
const (
	spanQuery     = "query"
	spanParse     = "xpath.parse"
	spanTranslate = "client.translate"
	spanMarshalQ  = "wire.marshal_query"
	spanExec      = "server.exec"
	spanEncode    = "wire.encode_answer"
	spanDecode    = "wire.decode_answer"
	spanVerify    = "authtree.verify"
	spanDecrypt   = "client.decrypt"
	spanPost      = "client.post"
)

// run pushes one query through the layers, one span per layer under a
// root span for the operation.
func (p *pipeline) run(tr *tracer, opID int, q string) (layerCounts, error) {
	var lc layerCounts
	root := tr.start(spanQuery, opID, -1)
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		id := tr.start(name, opID, root)
		defer tr.end(id)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var path *xpath.Path
	var qs *wire.Query
	var frame, encoded []byte
	var ans, got *wire.Answer
	var blocks map[int][]byte
	var streamed bool // the codec remote would pick for this answer
	steps := []struct {
		name string
		fn   func() (err error)
	}{
		{spanParse, func() (err error) { path, err = xpath.Parse(q); return }},
		{spanTranslate, func() (err error) {
			if qs, err = p.view.Translate(path); err == nil {
				qs.WantProof = true
			}
			return
		}},
		{spanMarshalQ, func() (err error) { frame, err = wire.MarshalQuery(qs); return }},
		{spanExec, func() (err error) { ans, err = p.srv.ExecuteFrameCtx(context.Background(), frame); return }},
		{spanEncode, func() (err error) {
			if streamed = ans.ByteSize() >= streamCutoff; streamed {
				var buf bytes.Buffer
				_, _, err = wire.EncodeStreamAnswer(&buf, ans, nil)
				encoded = buf.Bytes()
				return
			}
			encoded, err = wire.MarshalAnswer(ans)
			return
		}},
		{spanDecode, func() (err error) {
			if streamed {
				got, err = wire.DecodeStreamAnswer(bytes.NewReader(encoded), nil)
				return
			}
			got, err = wire.UnmarshalAnswer(encoded)
			return
		}},
		{spanVerify, func() error { return p.verifier.VerifyAnswer(got) }},
		{spanDecrypt, func() (err error) { blocks, err = p.cl.DecryptBlocks(got); return }},
		{spanPost, func() error {
			nodes, _, err := p.cl.PostProcess(path, got, blocks)
			lc.Results = len(nodes)
			return err
		}},
	}
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			return lc, err
		}
	}
	lc.QueryBytes = len(frame)
	lc.Ranges = countRanges(qs)
	lc.ProofBytes = len(got.Proof)
	for _, b := range got.Blocks {
		lc.BlockBytes += len(b)
	}
	return lc, nil
}

// countRanges counts the OPESS ciphertext ranges a translated query
// carries: the work the value index does for it.
func countRanges(q *wire.Query) int {
	n := 0
	var pred func(p wire.QPred)
	var chain func(s *wire.QStep)
	pred = func(p wire.QPred) {
		switch v := p.(type) {
		case *wire.PredExists:
			chain(v.Path)
		case *wire.PredValue:
			n += len(v.Ranges)
			chain(v.Path)
		case *wire.PredAnd:
			pred(v.L)
			pred(v.R)
		case *wire.PredOr:
			pred(v.L)
			pred(v.R)
		case *wire.PredNot:
			pred(v.E)
		}
	}
	chain = func(s *wire.QStep) {
		for ; s != nil; s = s.Next {
			for _, p := range s.Preds {
				pred(p)
			}
		}
	}
	chain(q.First)
	return n
}
