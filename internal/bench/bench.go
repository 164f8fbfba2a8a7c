// Package bench is the experiment harness behind §7 of the paper:
// it builds the datasets, hosts them under every encryption scheme,
// runs the Qs/Qm/Ql workloads, and produces the rows of every table
// and figure in the evaluation section. Both cmd/xencbench (which
// prints the tables) and the repository's testing.B benchmarks are
// thin wrappers over this package.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// Config selects a dataset and scale.
type Config struct {
	// Dataset is "nasa" or "xmark".
	Dataset string
	// SizeBytes is the target plaintext document size (the paper uses
	// 25 MB for Figure 9).
	SizeBytes int
	// Seed makes the workload deterministic.
	Seed uint64
	// QueriesPerClass is the number of queries per Qs/Qm/Ql class
	// (paper: 10).
	QueriesPerClass int
	// Trials per query; the reported value is the average after
	// dropping the minimum and maximum (paper: 5 trials).
	Trials int
	// PaperHW enables the paper-era client cost model: client
	// decryption time is simulated at PaperDecryptMBps instead of
	// measured, reproducing the 2006 regime where decryption
	// dominates (§7.2). See EXPERIMENTS.md.
	PaperHW bool
}

// PaperDecryptMBps calibrates the paper's 900 MHz Java client: a few
// megabytes per second of authenticated decryption.
const PaperDecryptMBps = 5.0

// DefaultConfig mirrors §7.1 at a configurable size.
func DefaultConfig(dataset string, sizeBytes int) Config {
	return Config{
		Dataset:         dataset,
		SizeBytes:       sizeBytes,
		Seed:            2006,
		QueriesPerClass: 10,
		Trials:          5,
	}
}

// Schemes is the §7.1 scheme lineup, coarse to fine.
var Schemes = []core.SchemeName{core.SchemeTop, core.SchemeSub, core.SchemeApp, core.SchemeOpt}

// Classes is the §7.1 query-class lineup.
var Classes = []datagen.QueryClass{datagen.Qs, datagen.Qm, datagen.Ql}

// Setup holds one dataset hosted under every scheme.
type Setup struct {
	Config  Config
	Doc     *xmltree.Document
	SCs     []string
	Systems map[core.SchemeName]*core.System
}

// NewSetup generates the dataset and hosts it under all four schemes.
func NewSetup(cfg Config) (*Setup, error) {
	var doc *xmltree.Document
	var scs []string
	switch cfg.Dataset {
	case "nasa":
		doc = datagen.NASAToSize(cfg.SizeBytes, cfg.Seed)
		scs = datagen.NASASCs()
	case "xmark":
		doc = datagen.XMarkToSize(cfg.SizeBytes, cfg.Seed)
		scs = datagen.XMarkSCs()
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", cfg.Dataset)
	}
	s := &Setup{Config: cfg, Doc: doc, SCs: scs, Systems: map[core.SchemeName]*core.System{}}
	for _, name := range Schemes {
		sys, err := core.Host(doc, scs, name, []byte("bench-"+string(name)))
		if err != nil {
			return nil, fmt.Errorf("bench: host %s: %w", name, err)
		}
		if cfg.PaperHW {
			sys.SimDecryptMBps = PaperDecryptMBps
		}
		if l, ok := sys.Server.(core.Local); ok {
			// The §7 experiments measure the cold query pipeline —
			// parse, resolve, match, decrypt — not cache hits. Repeated
			// trials of the same query would otherwise all be served
			// from the answer cache.
			l.S.SetCaching(false)
		}
		s.Systems[name] = sys
	}
	return s, nil
}

// Queries returns the workload of one class.
func (s *Setup) Queries(class datagen.QueryClass) []string {
	return datagen.Queries(s.Doc, class, s.Config.QueriesPerClass, s.Config.Seed+uint64(class))
}

// measure runs one query cfg.Trials times and returns the
// trimmed-mean timings (min and max trials dropped, as in §7.1).
func (s *Setup) measure(sys *core.System, q string) (core.Timings, error) {
	trials := s.Config.Trials
	if trials < 1 {
		trials = 1
	}
	all := make([]core.Timings, 0, trials)
	for t := 0; t < trials; t++ {
		_, _, tm, err := sys.Query(q)
		if err != nil {
			return core.Timings{}, fmt.Errorf("query %s: %w", q, err)
		}
		all = append(all, tm)
	}
	return trimmedMean(all), nil
}

func (s *Setup) measureNaive(sys *core.System, q string) (core.Timings, error) {
	trials := s.Config.Trials
	if trials < 1 {
		trials = 1
	}
	all := make([]core.Timings, 0, trials)
	for t := 0; t < trials; t++ {
		_, _, tm, err := sys.NaiveQuery(q)
		if err != nil {
			return core.Timings{}, fmt.Errorf("naive %s: %w", q, err)
		}
		all = append(all, tm)
	}
	return trimmedMean(all), nil
}

// trimmedMean averages the timings after dropping the trials with
// the smallest and largest totals (when there are at least 3).
func trimmedMean(all []core.Timings) core.Timings {
	if len(all) >= 3 {
		mn, mx := 0, 0
		for i, tm := range all {
			if tm.Total() < all[mn].Total() {
				mn = i
			}
			if tm.Total() > all[mx].Total() {
				mx = i
			}
		}
		var kept []core.Timings
		for i, tm := range all {
			if i != mn && i != mx {
				kept = append(kept, tm)
			}
		}
		if len(kept) > 0 {
			all = kept
		}
	}
	var sum core.Timings
	for _, tm := range all {
		sum.ClientTranslate += tm.ClientTranslate
		sum.ServerExec += tm.ServerExec
		sum.Transmit += tm.Transmit
		sum.ClientDecrypt += tm.ClientDecrypt
		sum.ClientPost += tm.ClientPost
		sum.AnswerBytes += tm.AnswerBytes
		sum.BlocksShipped += tm.BlocksShipped
	}
	n := time.Duration(len(all))
	sum.ClientTranslate /= n
	sum.ServerExec /= n
	sum.Transmit /= n
	sum.ClientDecrypt /= n
	sum.ClientPost /= n
	sum.AnswerBytes /= len(all)
	sum.BlocksShipped /= len(all)
	return sum
}

// average accumulates trimmed means over a workload.
func average(ts []core.Timings) core.Timings {
	if len(ts) == 0 {
		return core.Timings{}
	}
	var sum core.Timings
	for _, tm := range ts {
		sum.ClientTranslate += tm.ClientTranslate
		sum.ServerExec += tm.ServerExec
		sum.Transmit += tm.Transmit
		sum.ClientDecrypt += tm.ClientDecrypt
		sum.ClientPost += tm.ClientPost
		sum.AnswerBytes += tm.AnswerBytes
		sum.BlocksShipped += tm.BlocksShipped
	}
	n := time.Duration(len(ts))
	sum.ClientTranslate /= n
	sum.ServerExec /= n
	sum.Transmit /= n
	sum.ClientDecrypt /= n
	sum.ClientPost /= n
	sum.AnswerBytes /= len(ts)
	sum.BlocksShipped /= len(ts)
	return sum
}
