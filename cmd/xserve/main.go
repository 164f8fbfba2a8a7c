// Command xserve runs the untrusted server of the paper's DAS
// architecture as a standalone HTTP service. Owners upload encrypted
// databases (with xupload below or the remote client API), then point
// their clients at the service.
//
//	xserve -listen :8080
//
// Optionally pre-host a database at startup: xserve encrypts the
// given document locally — this is for demos; in production the
// owner encrypts on their own machine and uploads the ciphertext.
//
//	xserve -listen :8080 -demo db.xml -key secret \
//	       -sc "//patient:(/pname, //disease)" -name hospital
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/xmltree"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	listen := flag.String("listen", ":8080", "address to listen on")
	dataDir := flag.String("dir", "", "persist hosted databases in this directory (reloaded on restart)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "max duration for reading an entire request")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "max duration for writing a response")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "max keep-alive idle time")
	grace := flag.Duration("shutdown-grace", 15*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	pprofOn := flag.Bool("pprof", true, "serve net/http/pprof profiles at /debug/pprof/ (CPU profiles longer than -write-timeout are cut off)")
	maxCost := flag.Int64("max-cost", 0, "admission gate capacity in cost units (predicted blocks touched; 0 disables the gate)")
	costAware := flag.Bool("cost-aware", false, "price each query by its predicted blocks touched instead of one unit")
	maxQueue := flag.Int("max-queue", 0, "max queued requests before instant shed (0 = 64 default)")
	queueWait := flag.Duration("queue-wait", 0, "max time a request queues for capacity before a 503 (0 = 2s default)")
	streamWriteTimeout := flag.Duration("stream-write-timeout", 0, "write deadline per 16 KiB flush stride of a query answer; slow readers are cut off (0 = 30s default, negative disables)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "updates between full checkpoints truncating the WAL (0 = default 64)")
	chaosRate := flag.Float64("chaos", 0, "inject faults (latency/5xx/truncation) at this rate per request — testing only")
	chaosSeed := flag.Int64("chaos-seed", 1, "deterministic seed for -chaos")
	demo := flag.String("demo", "", "optional XML file to encrypt and pre-host")
	name := flag.String("name", "demo", "database name for the pre-hosted document")
	key := flag.String("key", "", "master key for the pre-hosted document")
	schemeName := flag.String("scheme", "opt", "scheme for the pre-hosted document")
	var scs multiFlag
	flag.Var(&scs, "sc", "security constraint for the pre-hosted document (repeatable)")
	flag.Parse()

	var svc *remote.Service
	if *dataDir != "" {
		var err error
		svc, err = remote.NewPersistentServiceOpts(*dataDir, remote.PersistOptions{
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Corrupt databases are set aside, not fatal — but the operator
		// must know: a quarantined database answers 404 until it is
		// re-uploaded or restored.
		for _, q := range svc.Quarantined() {
			log.Printf("xserve: quarantined %s -> %s (%s)", q.File, q.Moved, q.Reason)
		}
		// What recovery did, per database: replayed WAL records mean
		// the previous incarnation died between checkpoints (a crash,
		// not a clean stop); a torn tail is the normal signature of
		// dying mid-append.
		for name, rec := range svc.Recoveries() {
			log.Printf("xserve: recovered %q: gen %d -> %d (%d wal records replayed, tornTail=%v, rootChecked=%v)",
				name, rec.SnapshotGen, rec.RecoveredGen, rec.Replayed, rec.TornTail, rec.RootChecked)
		}
		defer svc.Close()
	} else {
		svc = remote.NewService()
	}
	svc = svc.WithWriteTimeout(*streamWriteTimeout)
	if *maxCost > 0 {
		svc = svc.WithAdmission(admission.Config{
			MaxCost:   *maxCost,
			MaxQueue:  *maxQueue,
			QueueWait: *queueWait,
			CostAware: *costAware,
		})
		fmt.Printf("admission: capacity %d cost units (cost-aware=%v)\n", *maxCost, *costAware)
	}

	if *demo != "" {
		if *key == "" {
			log.Fatal("xserve: -demo requires -key")
		}
		f, err := os.Open(*demo)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := xmltree.Parse(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		sys, err := core.Host(doc, scs, core.SchemeName(*schemeName), []byte(*key))
		if err != nil {
			log.Fatal(err)
		}
		// Register through the wire format, so exactly the bytes a
		// remote owner would upload are served.
		if err := remote.RegisterLocal(svc, *name, sys.HostedDB); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pre-hosted %q: %d blocks, %d index entries\n",
			*name, sys.Scheme.NumBlocks(), len(sys.HostedDB.IndexEntries))
	}

	// Cache observability: hit/miss/eviction/invalidation counters of
	// every hosted database's cross-query caches, served as expvar
	// JSON at /debug/vars (mounted outside the chaos wrapper so fault
	// injection never garbles monitoring).
	expvar.Publish("secxml_caches", expvar.Func(func() any { return svc.CacheStats() }))
	// Overload observability: queue depth, shed and admit counters —
	// one snapshot for the whole service.
	expvar.Publish("secxml_overload", expvar.Func(func() any { return svc.Admission().Snapshot() }))

	var handler http.Handler = svc
	if *chaosRate > 0 {
		handler = remote.NewChaosHandler(svc, remote.FaultConfig{
			Seed:         *chaosSeed,
			LatencyRate:  *chaosRate,
			Latency:      200 * time.Millisecond,
			ErrorRate:    *chaosRate,
			TruncateRate: *chaosRate,
		})
		fmt.Printf("CHAOS MODE: injecting faults at rate %.2f (seed %d)\n", *chaosRate, *chaosSeed)
	}

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	if *pprofOn {
		// Mounted explicitly (a custom mux skips net/http/pprof's
		// DefaultServeMux registration), and — like /debug/vars —
		// outside the chaos wrapper so profiling survives fault
		// injection.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", handler)

	srv := &http.Server{
		Addr:              *listen,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests for
	// up to -shutdown-grace before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("xserve listening on %s\n", *listen)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("xserve: shutting down, draining in-flight requests...")
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("xserve: shutdown: %v", err)
	}
	fmt.Println("xserve: stopped")
}
