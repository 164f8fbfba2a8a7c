// Command xquery runs XPath queries through the full secure
// evaluation pipeline of the paper (Figure 1): it hosts the given
// document encrypted under the given security constraints, then
// evaluates each query — client translation, server-side pruning
// over the DSI and value indices, transmission, decryption and
// post-processing — and prints results with the per-stage timing
// breakdown.
//
//	xquery -in db.xml -key secret -sc "//patient:(/pname, //disease)" \
//	       -scheme opt "//patient[.//disease='flu']/pname"
//
// With -remote URL the encrypted database is uploaded to a running
// xserve instance and every query travels over HTTP:
//
//	xquery -in db.xml -key secret -sc "..." -remote http://localhost:8080 "..."
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/xmltree"
	"repro/secxml"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	in := flag.String("in", "", "input XML file (required)")
	schemeName := flag.String("scheme", "opt", "encryption scheme: opt, app, sub, top, leaf")
	key := flag.String("key", "", "master key (required)")
	naive := flag.Bool("naive", false, "also run the naive ship-everything baseline")
	remoteURL := flag.String("remote", "", "upload to a running xserve at this base URL and query over HTTP")
	dbName := flag.String("db", "xquery", "database name on the remote server")
	timeout := flag.Duration("timeout", 10*time.Second, "per-attempt timeout for remote operations (0 disables)")
	opTimeout := flag.Duration("op-timeout", time.Minute, "overall deadline per remote operation including retries (0 disables)")
	retries := flag.Int("retries", remote.DefaultRetryPolicy.MaxAttempts, "total attempts per remote operation (1 disables retries)")
	retryBase := flag.Duration("retry-base", remote.DefaultRetryPolicy.BaseDelay, "initial retry backoff (doubles per attempt, jittered)")
	integrity := flag.Bool("integrity", false, "verify every remote answer against a local Merkle commitment (requires -remote)")
	xmlOut := flag.Bool("xml", false, "print results as XML instead of string values")
	var scs multiFlag
	flag.Var(&scs, "sc", "security constraint (repeatable)")
	flag.Parse()

	if *in == "" || *key == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "xquery: -in, -key and at least one query are required")
		flag.Usage()
		os.Exit(2)
	}
	for _, q := range flag.Args() {
		if err := secxml.Validate(q); err != nil {
			fatal(err)
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if *remoteURL != "" {
		rc := remoteConfig{
			baseURL:   *remoteURL,
			name:      *dbName,
			timeout:   *timeout,
			opTimeout: *opTimeout,
			retries:   *retries,
			retryBase: *retryBase,
			integrity: *integrity,
			xmlOut:    *xmlOut,
		}
		runRemote(f, scs, *key, *schemeName, rc, flag.Args())
		return
	}
	if *integrity {
		fatal(fmt.Errorf("-integrity requires -remote: the in-process server is inside the trust boundary"))
	}
	doc, err := secxml.ParseDocument(f)
	if err != nil {
		fatal(err)
	}
	db, err := secxml.Host(doc, scs, secxml.Options{
		MasterKey: []byte(*key),
		Scheme:    *schemeName,
	})
	if err != nil {
		fatal(err)
	}

	for _, q := range flag.Args() {
		res, err := db.Query(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query: %s\n", q)
		var lines []string
		if *xmlOut {
			lines = res.XML()
		} else {
			lines = res.Values()
		}
		for _, l := range lines {
			fmt.Printf("  %s\n", l)
		}
		tm := res.Timings
		strat := tm.PlanStrategy
		if strat == "" {
			strat = "?"
		}
		fmt.Printf("  [%d results | plan %s | translate %v | server %v | transmit %v | decrypt %v | post %v | %d blocks, %d bytes]\n",
			res.Count(), strat, tm.ClientTranslate, tm.ServerExec, tm.Transmit,
			tm.ClientDecrypt, tm.ClientPost, tm.BlocksShipped, tm.AnswerBytes)
		if *naive {
			nres, err := db.NaiveQuery(q)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  [naive: total %v, %d bytes shipped]\n",
				nres.Timings.Total(), nres.Timings.AnswerBytes)
		}
	}
}

// remoteConfig carries the transport knobs of the -remote path.
type remoteConfig struct {
	baseURL, name      string
	timeout, opTimeout time.Duration
	retries            int
	retryBase          time.Duration
	integrity          bool
	xmlOut             bool
}

// opCtx bounds one remote operation (including its retries).
func (rc remoteConfig) opCtx() (context.Context, context.CancelFunc) {
	if rc.opTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), rc.opTimeout)
}

// runRemote encrypts locally, uploads to a running xserve, and
// evaluates every query over HTTP with the configured timeouts and
// retry policy.
func runRemote(f *os.File, scs []string, key, schemeName string, rc remoteConfig, queries []string) {
	doc, err := xmltree.Parse(f)
	if err != nil {
		fatal(err)
	}
	sys, err := core.Host(doc, scs, core.SchemeName(schemeName), []byte(key))
	if err != nil {
		fatal(err)
	}
	if rc.integrity {
		// Commit to the hosted state before it leaves the trust
		// boundary: the Merkle root is computed over exactly the bytes
		// about to be uploaded.
		if err := sys.EnableIntegrity(); err != nil {
			fatal(err)
		}
	}
	policy := remote.DefaultRetryPolicy
	policy.MaxAttempts = rc.retries
	policy.BaseDelay = rc.retryBase
	cl := remote.Dial(rc.baseURL, rc.name).WithRetry(policy).WithTimeout(rc.timeout)
	if rc.integrity {
		cl = cl.WithVerifier(sys.Verifier())
	}
	ctx, cancel := rc.opCtx()
	err = cl.Upload(ctx, sys.HostedDB)
	cancel()
	if err != nil {
		fatal(err)
	}
	sys.UseBackend(cl)
	fmt.Printf("uploaded %q to %s (%d blocks)\n", rc.name, rc.baseURL, sys.Scheme.NumBlocks())
	if rc.integrity {
		root := sys.Verifier().Root()
		fmt.Printf("integrity on: root %x (answers verified before decryption)\n", root[:8])
	}
	for _, q := range queries {
		ctx, cancel := rc.opCtx()
		nodes, _, tm, err := sys.QueryContext(ctx, q)
		cancel()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query: %s\n", q)
		for _, line := range resultLines(nodes, rc.xmlOut) {
			fmt.Printf("  %s\n", line)
		}
		streamNote := ""
		if tm.Streamed {
			streamNote = fmt.Sprintf(" | streamed %d chunks", tm.StreamChunks)
		}
		strat := tm.PlanStrategy
		if strat == "" {
			strat = "?"
		}
		fmt.Printf("  [%d results | plan %s | server+network %v | verify %v | %d blocks, %d bytes%s]\n",
			len(nodes), strat, tm.ServerExec, tm.Verify, tm.BlocksShipped, tm.AnswerBytes, streamNote)
	}
}

func resultLines(nodes []*xmltree.Node, xmlOut bool) []string {
	if xmlOut {
		return core.ResultStrings(nodes)
	}
	var out []string
	for _, n := range nodes {
		out = append(out, n.LeafValue())
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xquery:", err)
	os.Exit(1)
}
