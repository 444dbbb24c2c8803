package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// benchmarkFile is BENCHMARK.json as far as the benchmark reads it.
type benchmarkFile struct {
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json from the root of the checkout or
// from the benchmark's own directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver computes the spread with.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}

// selfCheck is -repeat: it runs each chosen workload's end-to-end
// measurement n times, each in a fresh child process with its own seed
// (peak memory and GC state are per process), prints median and
// quartiles per metric, and returns 1 if any spread but setup_s's
// exceeds the metric's bound in BENCHMARK.json. This is how the bounds
// were derived; two runs of it on one commit must agree within them.
func selfCheck(chosen []spec, seed int64, seconds, n int) int {
	file, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -repeat needs BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	status := 0
	for _, sp := range chosen {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // waits for the child to exit
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", sp.name, i+1, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: bad result line: %v\n", sp.name, i+1, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %d of %d ops failed\n", sp.name, i+1, res.Failed, res.Attempted)
				return 1
			}
			for name, mv := range res.Metrics {
				series[name] = append(series[name], mv.Value)
			}
		}
		fmt.Printf("== %s  %d runs x %d s, seeds %d..%d\n", sp.name, n, seconds, seed, seed+int64(n)-1)
		fmt.Printf("   %-16s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range file.EndToEnd {
			q1, med, q3 := quartiles(series[d.Name])
			spread := ratio(q3-q1, med)
			verdict := ""
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("   %-16s %12.4f %12.4f %12.4f %7.2f%% %7.2f%%%s\n", d.Name, q1, med, q3, 100*spread, 100*d.Bound, verdict)
		}
	}
	return status
}
