package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// manifestMetric is one end_to_end entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// runAA is the acceptance rule of this benchmark applied to one commit:
// two sets of `runs` runs per workload, every run a fresh process with
// another seed. For each end-to-end metric, the interquartile range of
// each set as a share of its median must stay within the metric's
// bound (setup_s excepted), and the second set's median must not be
// worse than the first's by more than the bound.
func runAA(cfg config, names []string, runs int, manifest string, out io.Writer) (bool, error) {
	data, err := os.ReadFile(manifest)
	if err != nil {
		return false, err
	}
	var m struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return false, fmt.Errorf("%s: %w", manifest, err)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	one := func(name string, seed int) (result, error) {
		args := []string{"--workload", name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(cfg.Seconds, 'f', -1, 64), "--trace", "0",
			"-out", cfg.OutDir, "-dir", cfg.Dir}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, stdout)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return result{}, fmt.Errorf("%s seed %d: last line: %w", name, seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return res, fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted)
		}
		return res, nil
	}

	ok := true
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := 0; i < runs; i++ {
				seed := set*runs + i + 1
				res, err := one(name, seed)
				if err != nil {
					return false, err
				}
				for k, v := range res.Metrics {
					sets[set][k] = append(sets[set][k], v.Value)
				}
				fmt.Fprintf(out, "# %s set %d seed %d done\n", name, set+1, seed)
			}
		}
		fmt.Fprintf(out, "%-6s %-28s %12s %8s %12s %8s %8s %6s\n", name, "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
		for _, mm := range m.EndToEnd {
			a, b := sets[0][mm.Name], sets[1][mm.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := ratio(a3-a1, ma), ratio(b3-b1, mb)
			worse := ratio(mb-ma, ma)
			if mm.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > mm.Bound || (mm.Name != "setup_s" && max(sa, sb) > mm.Bound) {
				verdict, ok = "EXCEEDED", false
			} else if mm.Name != "setup_s" && max(sa, sb) > mm.Bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(out, "%-6s %-28s %12.4f %7.2f%% %12.4f %7.2f%% %7.2f%% %5.0f%% %s\n",
				name, mm.Name, ma, 100*sa, mb, 100*sb, 100*worse, 100*mm.Bound, verdict)
		}
		// Every run's value in run order, so that a wide spread can be
		// told apart as drift, a burst or scatter.
		for _, mm := range m.EndToEnd {
			fmt.Fprintf(out, "# %s %s A %.4g\n# %s %s B %.4g\n", name, mm.Name, sets[0][mm.Name], name, mm.Name, sets[1][mm.Name])
		}
	}
	return ok, nil
}
