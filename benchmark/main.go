// Command benchmark measures the DAS pipeline of this repository end to
// end over HTTP and layer by layer. One invocation runs one workload:
//
//	benchmark --workload point|twig|bulk|mixed --seed N --seconds S --trace 0|1
//
// It sets the system up (several times, reporting the median set-up
// time), checks answers against a plaintext oracle, measures a closed
// loop of two clients for S seconds with tracing off, checks that every
// acknowledged update survives a recovery of the service, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which adds a traced single-client pass and leaves its
// spans in out/trace-<workload>.json). The exit code is non-zero when
// anything checked was wrong. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	cfg := config{DocBytes: 512 << 10, Setups: 3}
	var trace int
	var smoke, aa bool
	var runs int
	var manifest string
	flag.StringVar(&cfg.Workload, "workload", "all", "point, twig, bulk, mixed, or all (one after the other)")
	flag.Int64Var(&cfg.Seed, "seed", docSeed, "seed of the op sequences (the hosted document is fixed)")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.StringVar(&cfg.OutDir, "out", "out", "directory for trace files and, unless -dir is set, data")
	flag.StringVar(&cfg.Dir, "dir", "", "parent directory for the service's data (default: -out)")
	flag.BoolVar(&smoke, "smoke", false, "quick end-to-end check: 128 KB document, one set-up, a window of 1 s or 200 ops per client")
	flag.BoolVar(&aa, "aa", false, "run two sets of -runs runs per workload and compare them against the bounds in -manifest")
	flag.IntVar(&runs, "runs", 10, "runs per set in -aa mode, each with another seed")
	flag.StringVar(&manifest, "manifest", "BENCHMARK.json", "benchmark manifest (-aa reads bounds from it)")
	flag.Parse()
	cfg.Trace = trace != 0
	if smoke {
		cfg = cfg.smoke()
	}

	names := []string{cfg.Workload}
	if cfg.Workload == "all" {
		names = workloadNames
	}
	if aa {
		ok, err := runAA(cfg, names, runs, manifest, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	allCorrect := true
	for _, name := range names {
		c := cfg
		c.Workload = name
		res, err := run(c, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// stampOf records what a reader needs to compare two reports: code,
// machine, inputs and policy.
func stampOf(cfg config, st *stack, w *workload) map[string]any {
	readerOps := 0
	for _, r := range w.Readers {
		readerOps += len(r)
	}
	return map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   w.Name,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"load":       fmt.Sprintf("closed loop, %d reader(s) + %d writer(s), one connection each", len(w.Readers), min(len(w.Writer), 1)),
		"ops":        fmt.Sprintf("%d distinct queries, reader sequences of %d ops walked cyclically, %d warm-up ops per client, %d traced ops", len(w.Distinct), readerOps, w.WarmupOps, w.TracedOps),
		"document":   fmt.Sprintf("NASA, seed %d, %d plaintext bytes, scheme opt, integrity on", docSeed, st.userBytes),
		"data_dir":   st.dir,
		"filesystem": fsType(st.dir),
		"flush":      fmt.Sprintf("default PersistOptions: fsync on every commit, no group wait, checkpoint every %d updates; fsyncs are counted and return at once (see quietDisk)", checkpointEvery),
		"service":    "default caches, planner, admission and stream cutoff; client streaming on, verifier on, default retry policy",
	}
}

func printStamp(out io.Writer, stamp map[string]any) {
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%-12s %v\n", k, stamp[k])
	}
}

// commit is the checked-out revision, or "unknown" outside a git
// checkout (the benchmark driver's copy is one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir, since fsync cost is most of an
// update and of the upload.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs"}
	if n, ok := names[int64(s.Type)]; ok {
		return n
	}
	return fmt.Sprintf("type 0x%X", int64(s.Type))
}

// cpuTime is the user plus system CPU time of this process, which
// holds the clients and the service alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the processor time the hypervisor has taken from this
// machine since boot (the steal column of /proc/stat, in 10 ms ticks),
// or 0 where the kernel does not report it.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMB is the process's peak resident set so far (ru_maxrss is in
// kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
