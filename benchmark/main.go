// Command benchmark is the one benchmark every performance claim about
// the live stack is judged by: four closed-loop workloads over the real
// wire → netv3 → cache/destage/diskq → vvault → workload stack, booted
// in-process over loopback TCP, with CPU per op as the currency next to
// throughput and latency. See README.md for what each number means and
// which layer should move it.
//
//	bash benchmark/run.sh --workload hit_read_8k --seed 1 --seconds 20 --trace 0
//	go -C benchmark run . -workload all -seed 1
//
// The process confines itself to one CPU first (pin.go). With -trace 0 it
// measures the end-to-end metrics in an untraced window, over the window's
// quiet slices (quiet.go); with -trace 1 it measures the per-layer metrics
// in a traced window of the same length; without -trace it does both. The
// last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	warmup = 3 * time.Second
	// The traced run first measures the same workload untraced for a
	// short window in the same process: the tracing overhead is the
	// difference between the two rates.
	baselineWarmup  = 2 * time.Second
	baselineMeasure = 3 * time.Second
	// Set-up is timed at least setupsMin times, then on until setupsBudget
	// is spent or setupsMax is reached; setup_s is the median.
	setupsMin    = 3
	setupsMax    = 9
	setupsBudget = 3 * time.Second
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Int("seconds", 20, "length of each measured window")
		trace        = flag.Int("trace", -1, "0: untraced end-to-end run; 1: traced per-layer run; unset: both")
		repeat       = flag.Int("repeat", 0, "run the end-to-end measurement N times in child processes and check each metric's spread against its bound in BENCHMARK.json")
	)
	flag.Parse()
	confineToOneCPU()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name|all> -seed <n> [-seconds <n>] [-trace 0|1] [-repeat <n>]")
		os.Exit(2)
	}
	var chosen []spec
	if *workloadName == "all" {
		chosen = specs
	} else if sp := specByName(*workloadName); sp != nil {
		chosen = []spec{*sp}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(selfCheck(chosen, *seed, *seconds, *repeat))
	}

	allCorrect := true
	for _, sp := range chosen {
		res, err := runWorkload(sp, *seed, time.Duration(*seconds)*time.Second, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		allCorrect = allCorrect && res.Correct
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// outputDir is benchmark/out whether the command runs from the root of the
// checkout or from the benchmark's own directory.
func outputDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// tempDir returns the scratch directory for the file-backed volume and the
// disk-queue unit loop, inside the benchmark's output directory.
func tempDir(out string) string {
	dir := filepath.Join(out, "tmp")
	_ = os.MkdirAll(dir, 0o755) // creating the volume reports the failure if this one mattered
	return dir
}

// runWorkload measures one workload and prints its report.
func runWorkload(sp spec, seed int64, measure time.Duration, trace int) (*result, error) {
	outDir := outputDir()
	dir := tempDir(outDir)
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fmt.Printf("== %s  (%s)\n", sp.name, sp.why)
	fmt.Printf("   env: %s\n", strings.Join(environment(seed), " "))

	if trace != 1 {
		m, firstSetup, err := measureOnce(sp, seed, dir, false, warmup, measure)
		if err != nil {
			return nil, err
		}
		reportRun(m, "untraced", measure)
		vals := endToEndMetrics(m)
		account(res, m)
		m.e.close()
		setups, err := timeSetups(sp, seed, dir, firstSetup)
		if err != nil {
			return nil, err
		}
		_, vals["setup_s"], _ = quartiles(setups)
		fmt.Printf("   set-up timed %d times: min %.3fs median %.3fs max %.3fs\n", len(setups), slices.Min(setups), vals["setup_s"], slices.Max(setups))
		emit(res, endToEnd, vals)
	}
	if trace != 0 {
		base, _, err := measureOnce(sp, seed, dir, false, baselineWarmup, baselineMeasure)
		if err != nil {
			return nil, err
		}
		baseline := ratio(float64(base.ops), base.elapsed.Seconds())
		account(res, base)
		base.e.close()
		base = nil
		runtime.GC()

		m, _, err := measureOnce(sp, seed, dir, true, warmup, measure)
		if err != nil {
			return nil, err
		}
		reportRun(m, "traced", measure)
		account(res, m)
		m.e.close()
		vals := layerMetrics(m, baseline, unitCosts(dir))
		emit(res, perLayer, vals)
		path := filepath.Join(outDir, sp.name+".trace.json")
		if err := m.w.tr.writeFile(path, map[string]any{
			"workload": sp.name, "seed": seed, "seconds": measure.Seconds(), "env": environment(seed),
		}); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("   trace: %s (%d spans kept, 1 op in %d)\n", path, len(m.w.tr.kept), keepEvery)
		for _, s := range m.w.tr.summary() {
			fmt.Printf("   span %-16s n=%-9d mean=%9.2f us  self=%9.2f us\n", s.Name, s.Count, s.MeanUS, s.SelfUS)
		}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no op completed inside the window")
	}
	return res, nil
}

// measureOnce sets the workload up, runs warm-up and one window, stops
// the load and verifies. The caller closes the returned env.
func measureOnce(sp spec, seed int64, dir string, traced bool, warm, measure time.Duration) (*measured, time.Duration, error) {
	w := newWindow(traced)
	t0 := time.Now()
	e, err := sp.setup(seed, w, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0)

	histNames := tracedHistNames()
	snap := func() edge {
		c := serverCounters(e.servers())
		for k, v := range e.clientStats() {
			c["Client."+k] = v
		}
		for k, v := range e.vaultStats() {
			c["Vault."+k] = v
		}
		return edge{proc: takeProcSnap(), counters: c, hists: snapHists(w.reg, histNames)}
	}
	e.start(warm, measure)
	open, shut, ticks := runWindow(w, warm, measure, snap, e.progress)
	e.stop()

	m := &measured{w: w, e: e, open: open, shut: shut, elapsed: shut.proc.at.Sub(open.proc.at), slices: slicesOf(ticks, w.read)}
	if traced {
		m.heapLiveMB = heapLiveMB() // load stopped, stack still up
	}
	m.reads, m.writes = w.read.sorted(), w.write.sorted()
	m.ops = w.read.count() + w.write.count()
	if res := e.txResult(); res != nil {
		m.ops = 0
		for _, k := range res.Kinds {
			m.ops += k.Count
		}
		m.elapsed = res.Measure
	}
	if m.ops > 0 && ticks[len(ticks)-1].ops == 0 {
		e.close()
		return nil, 0, errors.New("ops completed but the workload's progress counter never moved: the slices are empty")
	}
	if bad, detail := e.verify(); bad > 0 {
		w.failN(bad, "verify: %s", detail)
	}
	return m, setup, nil
}

// timeSetups repeats set-up alone, after the measured stack is gone, and
// returns every set-up time in seconds including first: one slow fsync
// must not decide setup_s, and discarded stacks must not count toward the
// measured one's peak memory.
func timeSetups(sp spec, seed int64, dir string, first time.Duration) ([]float64, error) {
	setups := []float64{first.Seconds()}
	spent := first
	for len(setups) < setupsMax && (len(setups) < setupsMin || spent < setupsBudget) {
		runtime.GC()
		t0 := time.Now()
		e, err := sp.setup(seed, newWindow(false), dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		e.close()
		setups = append(setups, d.Seconds())
		spent += d
	}
	return setups, nil
}

// endToEndMetrics derives the end-to-end metrics of an untraced window
// from its quiet slices (see quiet.go); setup_s is added by the caller.
func endToEndMetrics(m *measured) map[string]float64 {
	q := pooled(quietSlices(m.slices))
	return map[string]float64{
		"ops_per_s":     q.opsPerS(),
		"read_p50_us":   percentileUS(q.reads, 50),
		"cpu_us_per_op": ratio(float64(q.cpuUS), float64(q.ops)),
	}
}

// account adds one window's ops and failures to the result line.
func account(res *result, m *measured) {
	failed, _ := m.w.failures()
	attempted := max(m.ops, failed)
	res.Attempted += attempted
	res.Failed += min(failed, attempted)
	if failed > 0 {
		res.Correct = false
	}
}

// emit copies vals into the result under defs' names and units, and
// prints them.
func emit(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("   %-36s %14.4f %s\n", d.Name, v, d.Unit)
	}
}

// reportRun prints what ran, under which shape, and whether it verified.
func reportRun(m *measured, kind string, measure time.Duration) {
	sh := m.e.shapeUsed()
	fmt.Printf("   %s window %s after warm-up; %s\n", kind, measure, m.e.describe())
	fmt.Printf("   shape: %s", strings.Join(sh.applied, " "))
	if len(sh.skipped) > 0 {
		fmt.Printf("  shape_skipped: %s", strings.Join(sh.skipped, " "))
	}
	fmt.Println()
	if kind == "traced" {
		fmt.Println("   note: the traced run's store shim makes the disk queue use its portable backend; the untraced run's bare FileStore is eligible for io_uring, which is what the end-to-end numbers measure")
	}
	failed, first := m.w.failures()
	fmt.Printf("   ops=%d elapsed=%.3fs failed=%d failed_share=%.6f", m.ops, m.elapsed.Seconds(), failed, ratio(float64(failed), float64(max(m.ops, failed, 1))))
	if failed > 0 {
		fmt.Printf(" first_failure=%q", first)
	} else {
		fmt.Print(" verifier=pass")
	}
	fmt.Println()
	for _, c := range []struct {
		name string
		s    *sampler
		vals []uint32
	}{{"read", m.w.read, m.reads}, {"write", m.w.write, m.writes}, {"flush", m.w.flush, m.w.flush.sorted()}} {
		if len(c.vals) == 0 {
			continue
		}
		pm := maxPercentile(len(c.vals))
		fmt.Printf("   lat %-5s n=%d dropped=%d mean=%.1f us p50=%.1f us p99=%.1f us p%g=%.1f us\n",
			c.name, len(c.vals), c.s.dropped(), c.s.meanUS(), percentileUS(c.vals, 50), percentileUS(c.vals, 99), pm, percentileUS(c.vals, pm))
	}
	p0, p1 := m.open.proc, m.shut.proc
	fmt.Printf("   whole window: %.1f ops/s, %.3f us CPU per op\n",
		ratio(float64(m.ops), m.elapsed.Seconds()), ratio(float64(p1.userUS+p1.sysUS-p0.userUS-p0.sysUS), float64(m.ops)))
	rates := make([]float64, len(m.slices))
	for i, s := range m.slices {
		rates[i] = s.opsPerS()
	}
	q1, med, q3 := quartiles(rates)
	fmt.Printf("   %d slices of %s: ops/s min %.0f q1 %.0f median %.0f q3 %.0f max %.0f", len(rates), sliceLen, slices.Min(rates), q1, med, q3, slices.Max(rates))
	if kind == "untraced" {
		quiet := quietSlices(m.slices)
		fmt.Printf("; the end-to-end metrics pool the %d fastest (%.0f ops/s and up)", len(quiet), quiet[len(quiet)-1].opsPerS())
	}
	fmt.Println()
}
