package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// holdoutSeed is the seed of the steadiness report's extra run: later
// claims can be checked on it.
const holdoutSeed = 1000

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadyReport runs every workload of BENCHMARK.json, or only the one
// named by only, runs times on seeds 1..runs, each in a fresh process, and prints for every end-to-end metric
// the median, the quartiles and the spread (quartile distance over median)
// against the metric's bound. One more run per workload on holdoutSeed, which
// the repeated runs do not use, is printed beside the median.
func steadyReport(runs, seconds int, commit, only string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness report reads BENCHMARK.json from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(workload string, seed uint64) (*result, error) {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0", "--commit", commit)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
		}
		if !r.Correct || r.Failed != 0 {
			return nil, fmt.Errorf("%s seed %d: %d of %d accesses failed", workload, seed, r.Failed, r.Attempted)
		}
		return &r, nil
	}
	fmt.Printf("machine: %s\n", machineRecord(commit, fmt.Sprintf("1..%d and %d", runs, holdoutSeed)))
	fmt.Printf("steadiness: %d runs per workload on seeds 1..%d, %d s each; holdout seed %d\n", runs, runs, seconds, holdoutSeed)
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 1; i <= runs; i++ {
			r, err := one(w.Name, uint64(i))
			if err != nil {
				return err
			}
			for _, m := range bf.EndToEnd {
				values[m.Name] = append(values[m.Name], r.Metrics[m.Name].Value)
			}
		}
		h, err := one(w.Name, holdoutSeed)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n  %-18s %12s %12s %12s %8s %6s  %-22s %12s %8s\n", w.Name,
			"metric", "median", "q1", "q3", "spread", "bound", "verdict", "holdout", "worse_by")
		for _, m := range bf.EndToEnd {
			q1, med, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / med
			verdict := "steady (< bound/3)"
			switch {
			case m.Name == "setup_s":
				verdict = "n/a (setup)"
			case spread > m.Bound:
				verdict = "UNSTEADY (> bound)"
			case spread > m.Bound/3:
				verdict = "within bound"
			}
			hv := h.Metrics[m.Name].Value
			worse := (hv - med) / med
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("  %-18s %12.5g %12.5g %12.5g %8.4f %6.3f  %-22s %12.5g %8.4f\n",
				m.Name, med, q1, q3, spread, m.Bound, verdict, hv, worse)
		}
		fmt.Printf("  values on seeds 1..%d:\n", runs)
		for _, m := range bf.EndToEnd {
			fmt.Printf("    %-18s %.5g\n", m.Name, values[m.Name])
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	if len(d) < 2 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}
