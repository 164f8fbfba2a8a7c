package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is one run: one workload, one seed, one measured window.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	DocBytes int
	Setups   int    // set-ups per run; setup_s is their median
	MaxOps   int    // per client and window, 0 = bounded by Seconds only
	OutDir   string // trace files, and data directories unless Dir is set
	Dir      string // parent of the data directories
}

// smoke shrinks a run to a second or two with every check still on.
func (c config) smoke() config {
	c.DocBytes, c.Setups, c.MaxOps, c.Seconds = 128<<10, 1, 200, 1
	return c
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts checked operations. A failure is an error, a shed
// request, an answer that is not verified-live, or a mismatch with the
// plaintext oracle.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string // the first few failures, for the report
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// guard is a property that makes a workload mean what it says.
type guard struct {
	Name   string
	OK     bool
	Detail string
}

// bench is one run in progress: the system under test, the workload,
// and everything measured so far.
type bench struct {
	cfg config
	out io.Writer
	st  *stack
	w   *workload

	vals        map[string]float64
	samples     map[string]int
	unsupported map[string]bool // percentiles with too few samples beyond them
	tl          tally
	guards      []guard
	stamp       map[string]any

	expect  map[string]int // oracle result count of every distinct query
	compare []string       // the seeded sample that is byte-compared

	// The measured window, and the service's counters around it.
	win          window
	quiet        timings // the window's timings over its quiet slices
	s0, s1       svcStats
	fsyncsBefore int64

	lapStart time.Time
	laps     string // where the run's own wall time went
}

func (b *bench) lap(name string) {
	b.laps += fmt.Sprintf(" %s %.1fs", name, time.Since(b.lapStart).Seconds())
	b.lapStart = time.Now()
}

func (b *bench) guard(name string, ok bool, format string, args ...any) {
	b.guards = append(b.guards, guard{name, ok, fmt.Sprintf(format, args...)})
}

// run is the whole benchmark for one workload. An error means the run
// could not be carried out; wrong answers are reported in the result.
func run(cfg config, out io.Writer) (result, error) {
	b := &bench{cfg: cfg, out: out, vals: map[string]float64{}, samples: map[string]int{},
		unsupported: map[string]bool{}, lapStart: time.Now()}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return result{}, err
	}
	if err := b.setUp(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		b.st.close()
		os.RemoveAll(b.st.dir)
	}()
	b.lap("set-up")
	steps := []struct {
		name string
		do   func() error
	}{
		{"oracle", b.oracle},
		{"warm-up and measure", b.measure},
		{"traced pass", b.trace},
		{"updates, read-back and recovery", b.updatesAndRecovery},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			return result{}, fmt.Errorf("%s: %w", s.name, err)
		}
		b.lap(s.name)
	}
	return b.report(), nil
}

// setUp builds the system cfg.Setups times over, on a fresh directory
// each time; the last one is the system under test, and the set-up
// metrics are medians over all of them.
func (b *bench) setUp() error {
	parent := b.cfg.Dir
	if parent == "" {
		parent = b.cfg.OutDir
	}
	var phases []setupPhases
	for i := 0; i < b.cfg.Setups; i++ {
		if b.st != nil {
			b.st.close()
			os.RemoveAll(b.st.dir)
		}
		dir, err := os.MkdirTemp(parent, "data-")
		if err != nil {
			return err
		}
		if b.st, err = buildStack(b.cfg.DocBytes, dir); err != nil {
			os.RemoveAll(dir)
			return err
		}
		phases = append(phases, b.st.phases)
	}
	for name, get := range map[string]func(setupPhases) time.Duration{
		"setup_s":           func(p setupPhases) time.Duration { return p.Total },
		"setup.gen_s":       func(p setupPhases) time.Duration { return p.Gen },
		"setup.host_s":      func(p setupPhases) time.Duration { return p.Host },
		"client.encrypt_s":  func(p setupPhases) time.Duration { return p.Encrypt },
		"setup.integrity_s": func(p setupPhases) time.Duration { return p.Integrity },
		"setup.upload_s":    func(p setupPhases) time.Duration { return p.Upload },
	} {
		xs := make([]float64, len(phases))
		for i, p := range phases {
			xs[i] = get(p).Seconds()
		}
		b.vals[name] = median(xs)
		b.samples[name] = len(phases)
	}
	b.vals["setup.fsyncs"] = float64(b.st.phases.Fsyncs)
	b.vals["stored_bytes_per_user_byte"] = float64(b.st.storedBytes()) / float64(b.st.userBytes)

	var err error
	if b.w, err = buildWorkload(b.cfg.Workload, b.st.facts(), b.cfg.Seed); err != nil {
		return err
	}
	b.stamp = stampOf(b.cfg, b.st, b.w)
	printStamp(b.out, b.stamp)
	return nil
}

// oracle records, before any timing, the plaintext result count of every
// distinct query, and byte-compares a seeded sample of them (all of
// bulk's) against plaintext evaluation of the model document, on both
// cores.
func (b *bench) oracle() error {
	var err error
	if b.expect, err = b.st.oracleCounts(b.w.Distinct, b.cfg.OutDir); err != nil {
		return err
	}
	b.compare = b.w.Distinct
	if b.w.OracleSample < len(b.compare) {
		r := rand.New(rand.NewSource(b.cfg.Seed))
		b.compare = shuffled(r, b.compare)[:b.w.OracleSample]
	}
	var wg sync.WaitGroup
	for _, part := range deal(b.compare, clients) {
		wg.Add(1)
		go func(part []string) {
			defer wg.Done()
			for _, q := range part {
				checkAgainstModel(b.st, q, &b.tl)
			}
		}(part)
	}
	wg.Wait()
	return nil
}

// measure warms the system up and runs the measured window, tracing
// off, with the service's counters and the process's taken around it.
func (b *bench) measure() error {
	st, w, vals := b.st, b.w, b.vals
	// Warm-up: caches fill (bulk) or stay cold by construction (the
	// others), lazy set-up finishes, connections open.
	warm := measure(st, w, b.expect, 0, w.WarmupOps, time.Time{}, 0, &b.tl)

	var err error
	if b.s0, err = st.stats(); err != nil {
		return err
	}
	b.fsyncsBefore = st.disk.fsyncs.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	length := time.Duration(b.cfg.Seconds * float64(time.Second))
	b.win = measure(st, w, b.expect, warm.nextPos, b.cfg.MaxOps, time.Now().Add(length), length/slices, &b.tl)
	runtime.ReadMemStats(&m1)
	if b.s1, err = st.stats(); err != nil {
		return err
	}

	nq := float64(len(b.win.queryMs))
	ops := nq + float64(len(b.win.updateMs))
	b.quiet = b.win.timings()
	quiet := b.quiet
	ql := sortedCopy(quiet.queryMs)
	if len(ql) == 0 {
		return fmt.Errorf("no query completed in the measured window")
	}
	b.percentile("query_p50_ms", ql, 0.50)
	b.percentile("query_p95_ms", ql, 0.95)
	b.percentile("remote.query_p99_ms", ql, 0.99)
	vals["queries_per_s"] = float64(len(ql)) / quiet.wall.Seconds()
	vals["cpu_ms_per_op"] = quiet.cpu.Seconds() * 1e3 / float64(len(ql)+len(quiet.updateMs))
	vals["proc.quiet_share"] = quiet.wall.Seconds() / b.win.elapsed.Seconds()
	vals["proc.steal_share"] = quiet.stolen.Seconds() / (b.win.elapsed.Seconds() * clients)
	vals["answer_bytes_per_query"] = float64(b.win.bytes) / nq
	vals["blocks_per_query"] = float64(b.win.blocks) / nq
	b.samples["queries_per_s"] = len(ql)
	b.samples["cpu_ms_per_op"] = len(ql) + len(quiet.updateMs)
	b.samples["answer_bytes_per_query"], b.samples["blocks_per_query"] = int(nq), int(nq)
	vals["proc.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	vals["proc.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	vals["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	vals["proc.peak_rss_mb"] = peakRSSMB()

	// Server-side counts over the measured window.
	s0, s1 := b.s0, b.s1
	cache := func(name string) float64 {
		h := float64(s1.Caches[name].Hits - s0.Caches[name].Hits)
		m := float64(s1.Caches[name].Misses - s0.Caches[name].Misses)
		return ratio(h, h+m)
	}
	vals["server.answer_cache_hit_ratio"] = cache("answers")
	vals["server.plan_cache_hit_ratio"] = cache("plans")
	vals["server.range_cache_hit_ratio"] = cache("ranges")
	twig := float64(s1.Planner.Twig - s0.Planner.Twig)
	pair := float64(s1.Planner.Pairwise - s0.Planner.Pairwise)
	vals["server.twig_share"] = ratio(twig, twig+pair)
	vals["server.pruned_intervals_per_query"] = float64(s1.Planner.PrunedIntervals-s0.Planner.PrunedIntervals) / nq
	streamed := float64(s1.Stream.Answers - s0.Stream.Answers)
	vals["remote.stream_share"] = streamed / nq
	vals["remote.stream_chunks_per_answer"] = ratio(float64(s1.Stream.Chunks-s0.Stream.Chunks), streamed)
	vals["setup.blocks"] = float64(s1.Blocks)
	vals["setup.index_entries"] = float64(s1.IndexEntries)

	hit := vals["server.answer_cache_hit_ratio"]
	if w.Name == "bulk" {
		b.guard("answer cache serves bulk", hit > 0.90, "hit ratio %.3f, want > 0.90", hit)
	} else {
		b.guard("answer cache stays cold", hit < 0.10, "hit ratio %.3f, want < 0.10", hit)
	}
	return nil
}

// percentile records the q-quantile of sorted samples under name, and
// whether the sample supports it.
func (b *bench) percentile(name string, sorted []float64, q float64) {
	v, ok := percentile(sorted, q)
	b.vals[name], b.samples[name], b.unsupported[name] = v, len(sorted), !ok
}

// trace runs the traced pass, on a traced run: per-layer times, taken on
// servers of its own.
func (b *bench) trace() error {
	if !b.cfg.Trace {
		return nil
	}
	vals, spans, err := tracedPass(b.st, b.w, b.expect, &b.tl)
	if err != nil {
		return err
	}
	for k, v := range vals {
		b.vals[k], b.samples[k] = v, b.w.TracedOps
	}
	share := vals["server.exec_share"]
	switch b.w.Name {
	case "point":
		b.guard("server dominates a point lookup", share >= 0.70, "server.exec share %.3f, want >= 0.70", share)
	case "bulk":
		b.guard("server does little on bulk", share <= 0.20, "server.exec share %.3f, want <= 0.20", share)
	}
	path := filepath.Join(b.cfg.OutDir, "trace-"+b.w.Name+".json")
	if err := writeTrace(path, b.stamp, spans); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "trace        %s (%d spans)\n", path, len(spans))
	return nil
}

// updatesAndRecovery takes the update metrics from the writer of mixed,
// or on a read-only workload from the closing probe on the now idle
// service. Either way every edited leaf must read back its last
// acknowledged value, before and after the service is closed and
// recovered from its directory.
func (b *bench) updatesAndRecovery() error {
	st, vals := b.st, b.vals
	u0, upd, latencies, fsyncs0 := b.s0, b.win, b.quiet.updateMs, b.fsyncsBefore
	if len(b.w.Writer) == 0 {
		var err error
		if u0, err = st.stats(); err != nil {
			return err
		}
		fsyncs0 = st.disk.fsyncs.Load()
		upd = window{start: time.Now()}
		for _, o := range b.w.Probe {
			upd.update(st, o, &b.tl)
		}
		upd.elapsed = time.Since(upd.start)
		latencies = upd.updateMs
	}
	fsyncs := float64(st.disk.fsyncs.Load() - fsyncs0)
	edited := sortedKeys(st.edited)
	for _, q := range edited {
		checkAgainstModel(st, q, &b.tl)
	}
	u1, err := st.stats()
	if err != nil {
		return err
	}
	if err := st.reopen(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recheck := append(append([]string(nil), edited[:min(len(edited), 32)]...), b.compare[:min(len(b.compare), 8)]...)
	for _, q := range recheck {
		checkAgainstModel(st, q, &b.tl)
	}

	nu := float64(len(upd.updateMs))
	if nu == 0 {
		return fmt.Errorf("no update completed")
	}
	ul := sortedCopy(latencies)
	b.percentile("update_p50_ms", ul, 0.50)
	b.percentile("remote.update_p95_ms", ul, 0.95)
	vals["updates_per_s"] = nu / upd.elapsed.Seconds()
	vals["remote.update_apply_us"] = mean(upd.roundTripUs)
	vals["core.update_client_us"] = mean(upd.updateMs)*1e3 - mean(upd.roundTripUs)
	for _, n := range []string{"updates_per_s", "remote.update_apply_us", "core.update_client_us"} {
		b.samples[n] = len(ul)
	}
	committed := float64(u1.Updates.Singles - u0.Updates.Singles)
	vals["faultfs.fsyncs_per_update"] = ratio(fsyncs, committed)
	vals["walog.syncs_per_update"] = ratio(float64(u1.Durability.WalSyncs-u0.Durability.WalSyncs), committed)
	vals["remote.checkpoints"] = (committed - float64(u1.Durability.SinceCheckpoint-u0.Durability.SinceCheckpoint)) / checkpointEvery
	inval := 0.0
	for name, c := range u1.Caches {
		inval += float64(c.Invalidations - u0.Caches[name].Invalidations)
	}
	vals["gencache.invalidations"] = inval
	vals["admission.rejected"] = float64(u1.Overload.Rejected)
	b.guard("every commit wipes the server caches", inval >= committed, "%.0f invalidations for %.0f commits", inval, committed)
	b.guard("nothing was shed", u1.Overload.Rejected == 0, "admission rejected %d", u1.Overload.Rejected)

	if b.cfg.Trace {
		const records = 64
		if vals["walog.append_sync_us"], err = walFloor(st.dir, records); err != nil {
			return fmt.Errorf("wal floor: %w", err)
		}
		b.samples["walog.append_sync_us"] = records
	}
	return nil
}

// report prints every metric by name, the guards and the tally, and
// returns the contract's result: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (b *bench) report() result {
	res := result{Correct: b.tl.failed == 0, Attempted: b.tl.attempted, Failed: b.tl.failed, Metrics: map[string]metric{}}
	b.printMetrics("end-to-end", endToEnd)
	reported := endToEnd
	if b.cfg.Trace {
		b.printMetrics("per-layer", perLayer)
		reported = perLayer
	}
	for _, s := range reported {
		res.Metrics[s.Name] = metric{Value: b.vals[s.Name], Unit: s.Unit}
	}
	for _, g := range b.guards {
		verdict := "ok  "
		if !g.OK {
			verdict = "FAIL"
			res.Correct = false
		}
		fmt.Fprintf(b.out, "guard %s %-40s %s\n", verdict, g.Name, g.Detail)
	}
	fmt.Fprintf(b.out, "wall        %s\n", b.laps)
	fmt.Fprintf(b.out, "checked      %d operations, %d failed\n", b.tl.attempted, b.tl.failed)
	for _, n := range b.tl.notes {
		fmt.Fprintf(b.out, "  failure: %s\n", n)
	}
	return res
}

// printMetrics prints one list of metrics by name, with unit and the
// number of samples behind each. A percentile the sample does not
// support (fewer than minBeyond samples beyond it) is marked.
func (b *bench) printMetrics(title string, specs []spec) {
	fmt.Fprintf(b.out, "%s metrics\n", title)
	for _, s := range specs {
		note := ""
		if n, ok := b.samples[s.Name]; ok {
			note = fmt.Sprintf("n=%d", n)
		}
		if b.unsupported[s.Name] {
			note += fmt.Sprintf(" (fewer than %d samples beyond: not a supported percentile)", minBeyond)
		}
		fmt.Fprintf(b.out, "  %-34s %14.4f %-6s %s\n", s.Name, b.vals[s.Name], s.Unit, note)
	}
}

// checkAgainstModel byte-compares the system's answer to q with
// plaintext evaluation of the model document.
func checkAgainstModel(st *stack, q string, tl *tally) {
	want, err := st.oracle(q)
	if err != nil {
		tl.fail("oracle %s: %v", q, err)
		return
	}
	got, err := st.query(q, true)
	if err != nil {
		tl.fail("%s: %v", q, err)
		return
	}
	if len(got.Strings) != len(want) {
		tl.fail("%s: %d results, oracle has %d", q, len(got.Strings), len(want))
		return
	}
	for i := range want {
		if got.Strings[i] != want[i] {
			tl.fail("%s: result %d is %q, oracle has %q", q, i, got.Strings[i], want[i])
			return
		}
	}
	tl.ok()
}

// window is what the clients of one measured (or warm-up) stretch saw.
type window struct {
	elapsed     time.Duration
	queryMs     []float64
	queryEnds   []time.Duration // when each completed query ended, from the start
	updateEnds  []time.Duration // the same for updates
	ticks       []tick          // the start and every slice boundary
	start       time.Time
	bytes       int
	blocks      int
	updateMs    []float64
	roundTripUs []float64
	nextPos     int // where each reader's sequence continues
}

// update issues one edit and records it if it was acknowledged.
func (w *window) update(st *stack, o op, tl *tally) {
	t := time.Now()
	rt, err := st.update(o.Query, o.Value)
	d := time.Since(t)
	if err != nil {
		tl.fail("update %s: %v", o.Query, err)
		return
	}
	tl.ok()
	w.updateMs = append(w.updateMs, float64(d)/1e6)
	w.roundTripUs = append(w.roundTripUs, float64(rt)/1e3)
	w.updateEnds = append(w.updateEnds, time.Since(w.start))
}

// slices is how many equal parts the measured window is cut into. On a
// shared box the hypervisor takes the processor away in bursts of
// seconds (the kernel reports it as steal time), and what those bursts
// do to a latency or a rate says nothing about the system. So the
// window's timings are taken over its quiet slices only: see quiet.
const slices = 8

// tick is the wall offset, the process's CPU time and the machine's
// steal time at one slice boundary.
type tick struct{ at, cpu, steal time.Duration }

func (w *window) tick() {
	w.ticks = append(w.ticks, tick{time.Since(w.start), cpuTime(), stealTime()})
}

// quiet reports, for each slice between two ticks, whether it counts: a
// slice is quiet when less than 1 % of its core-seconds were stolen.
// When fewer than two slices are, the run sat inside a burst (or was
// cut short of two slices), and the slices no worse than the median one
// count instead.
func (w *window) quiet() []bool {
	n := len(w.ticks) - 1
	ok, stolen, found := make([]bool, n), make([]float64, n), 0
	for i := range stolen {
		a, b := w.ticks[i], w.ticks[i+1]
		stolen[i] = float64(b.steal - a.steal)
		if ok[i] = stolen[i] < 0.01*float64(b.at-a.at)*clients; ok[i] {
			found++
		}
	}
	if found < 2 {
		limit := median(stolen)
		for i := range ok {
			ok[i] = stolen[i] <= limit
		}
	}
	return ok
}

// timings are the window's timings over its quiet slices.
type timings struct {
	queryMs, updateMs []float64 // latencies of the operations that ended in a quiet slice
	wall, cpu, stolen time.Duration
}

func (w *window) timings() timings {
	ok := w.quiet()
	// An operation belongs to the slice it ended in; the last tick is
	// taken after every operation has ended.
	quietAt := func(end time.Duration) bool {
		i := sort.Search(len(w.ticks), func(i int) bool { return w.ticks[i].at > end }) - 1
		return ok[min(i, len(ok)-1)]
	}
	var t timings
	for i, end := range w.queryEnds {
		if quietAt(end) {
			t.queryMs = append(t.queryMs, w.queryMs[i])
		}
	}
	for i, end := range w.updateEnds {
		if quietAt(end) {
			t.updateMs = append(t.updateMs, w.updateMs[i])
		}
	}
	for i, quiet := range ok {
		a, b := w.ticks[i], w.ticks[i+1]
		t.stolen += b.steal - a.steal
		if quiet {
			t.wall += b.at - a.at
			t.cpu += b.cpu - a.cpu
		}
	}
	return t
}

// measure runs the workload's clients as a closed loop, each waiting
// for a reply before its next request, until every reader has done
// maxOps operations (if positive) or the deadline (if set) has passed.
// Readers start at position pos of their sequences; the writer, if
// any, works for as long as the readers do.
func measure(st *stack, w *workload, expect map[string]int, pos, maxOps int, deadline time.Time, slice time.Duration, tl *tally) window {
	done := func(n int) bool {
		return (maxOps > 0 && n >= maxOps) || (!deadline.IsZero() && !time.Now().Before(deadline))
	}
	parts := make([]window, len(w.Readers))
	var readers sync.WaitGroup
	start := time.Now()
	all := window{start: start}
	all.tick()
	for c, seq := range w.Readers {
		readers.Add(1)
		go func(part *window, seq []string) {
			defer readers.Done()
			for n := 0; !done(n); n++ {
				q := seq[(pos+n)%len(seq)]
				t := time.Now()
				a, err := st.query(q, false)
				d := time.Since(t)
				switch {
				case err != nil:
					tl.fail("%s: %v", q, err)
				case a.Count != expect[q]:
					tl.fail("%s: %d results, oracle has %d", q, a.Count, expect[q])
				default:
					tl.ok()
					part.queryMs = append(part.queryMs, float64(d)/1e6)
					part.queryEnds = append(part.queryEnds, time.Since(start))
					part.bytes += a.Bytes
					part.blocks += a.Blocks
				}
				part.nextPos = pos + n + 1
			}
		}(&parts[c], seq)
	}
	stop, writerDone, tickerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		// The clocks are read at every slice boundary, and once more
		// when the window ends.
		defer close(tickerDone)
		if slice <= 0 {
			return
		}
		ticker := time.NewTicker(slice)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				all.tick()
			}
		}
	}()
	go func() {
		defer close(writerDone)
		// The writer's sequence is walked once, across warm-up and
		// measurement: an edit's new value was chosen against the one
		// before it.
		for ; w.writerPos < len(w.Writer); w.writerPos++ {
			select {
			case <-stop:
				return
			default:
				all.update(st, w.Writer[w.writerPos], tl)
			}
		}
	}()
	readers.Wait()
	close(stop)
	<-writerDone
	<-tickerDone
	all.tick()
	all.elapsed = time.Since(start)
	for _, p := range parts {
		all.queryMs = append(all.queryMs, p.queryMs...)
		all.queryEnds = append(all.queryEnds, p.queryEnds...)
		all.bytes += p.bytes
		all.blocks += p.blocks
		all.nextPos = max(all.nextPos, p.nextPos)
	}
	return all
}

// tracedPass replays the head of the workload's read sequence with one
// client, three ways on three servers of their own: the owner over
// HTTP, the owner over an in-process backend, and the layers wired by
// hand with a span around each. Each replay warms its server exactly
// as the measured run was warmed.
func tracedPass(st *stack, w *workload, expect map[string]int, tl *tally) (map[string]float64, []span, error) {
	tw, err := st.newTwins()
	if err != nil {
		return nil, nil, err
	}
	defer tw.close()

	// One client walks the readers' sequences interleaved.
	at := func(i int) string {
		seq := w.Readers[i%len(w.Readers)]
		return seq[(i/len(w.Readers))%len(seq)]
	}
	warm, n := w.WarmupOps*len(w.Readers), w.TracedOps
	replay := func(do func(i int, q string) (int, error)) []float64 {
		us := make([]float64, 0, n)
		for i := 0; i < warm+n; i++ {
			q := at(i)
			t := time.Now()
			count, err := do(i, q)
			d := time.Since(t)
			switch {
			case err != nil:
				tl.fail("traced %s: %v", q, err)
			case count != expect[q]:
				tl.fail("traced %s: %d results, oracle has %d", q, count, expect[q])
			default:
				tl.ok()
				if i >= warm {
					us = append(us, float64(d)/1e3)
				}
			}
		}
		return us
	}
	viaHTTP := replay(func(_ int, q string) (int, error) { a, err := runQuery(tw.http, q, false); return a.Count, err })
	viaLocal := replay(func(_ int, q string) (int, error) { a, err := runQuery(tw.local, q, false); return a.Count, err })

	tr := newTracer()
	var sum layerCounts
	replay(func(i int, q string) (int, error) {
		t := tr
		if i < warm {
			t = newTracer() // warm-up spans are thrown away
		}
		lc, err := tw.pipe.run(t, i-warm, q)
		if err == nil && t == tr {
			sum.QueryBytes += lc.QueryBytes
			sum.Ranges += lc.Ranges
			sum.ProofBytes += lc.ProofBytes
			sum.BlockBytes += lc.BlockBytes
		}
		return lc.Results, err
	})

	total, self := meanByName(tr.spans)
	layers := 0.0
	for _, name := range []string{spanParse, spanTranslate, spanMarshalQ, spanExec, spanEncode, spanDecode, spanVerify, spanDecrypt, spanPost} {
		layers += total[name]
	}
	// The in-process owner runs every layer but the answer codec, so
	// that is what its wall time is reconciled against.
	shared := layers - total[spanEncode] - total[spanDecode]
	local, nn := mean(viaLocal), float64(n)
	return map[string]float64{
		"xpath.parse_us":             total[spanParse],
		"client.translate_us":        total[spanTranslate],
		"wire.marshal_query_us":      total[spanMarshalQ],
		"server.exec_us":             total[spanExec],
		"wire.encode_answer_us":      total[spanEncode],
		"wire.decode_answer_us":      total[spanDecode],
		"authtree.verify_us":         total[spanVerify],
		"client.decrypt_us":          total[spanDecrypt],
		"client.post_us":             total[spanPost],
		"server.exec_share":          ratio(total[spanExec], layers),
		"wire.query_bytes":           float64(sum.QueryBytes) / nn,
		"opess.ranges_per_query":     float64(sum.Ranges) / nn,
		"wire.proof_bytes_per_query": float64(sum.ProofBytes) / nn,
		"client.decrypt_mb_s":        ratio(float64(sum.BlockBytes)/nn, total[spanDecrypt]),
		"remote.overhead_us":         mean(viaHTTP) - local,
		"core.overhead_us":           local - shared,
		"trace.coverage":             ratio(shared, local),
		"trace.overhead_us":          self[spanQuery],
	}, tr.spans, nil
}
