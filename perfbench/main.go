// Command perfbench is the repository benchmark. One run drives one
// workload against the solver, engine, store, streaming and HTTP layers
// from outside, with inputs built from internal/dataset and seeded by
// --seed, checks every answer outside the timed region, and prints one
// JSON result line last:
//
//	bash perfbench/run.sh --workload offline --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and traced, fills the per-layer metrics from spans recorded
// around each layer call plus a fixed per-layer ladder, and prints the
// per-layer metrics. --repeat N re-runs the same command over N seeds
// and prints each metric's median and interquartile spread. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one traffic shape. measure builds the system under test
// setups times (timing each set-up and keeping the last), drives it for
// d, checks the answers and tears it down. A non-nil tracer records a
// span around every call into the program and makes measure fill the
// per-layer metrics the workload's layers provide.
type workload struct {
	name    string
	measure func(c *runCtx, d time.Duration, setups int, tr *tracer) (*phase, error)
}

var workloads = []workload{
	{"offline", measureOffline},
	{"serve-hot", measureServeHot},
	{"serve-store", measureServeStore},
	{"stream-group", measureStreamGroup},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is what one measured phase yields.
type phase struct {
	attempted, failed int64
	opsPerS           float64         // operations per second
	p50               time.Duration   // the headline operation's median
	tail              time.Duration   // and its tail
	tailNote          string          // which percentile tail is, over which samples
	setups            []time.Duration // CPU time of each set-up
	setupsWall        []time.Duration // and its wall time
	cpuPerOp          time.Duration   // process CPU time per operation over the timed phase
	peakRSSMB         float64
	heapMB            float64            // median live heap over the timed phase
	figures           []figure           // workload-specific end-to-end figures
	layer             map[string]float64 // per-layer metrics (traced phases)
}

// figure is one named, workload-specific end-to-end figure printed in
// the human-readable lines before the result.
type figure struct {
	name  string
	value float64
	unit  string
	note  string
}

// metricDef is one reported metric; the tables below are the contract
// BENCHMARK.json mirrors (TestBenchmarkJSONMatches pins the two).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated end-to-end metrics: the CPU cost of the
// workload's operation, the CPU cost of set-up, and the live heap.
// Wall-clock latency, throughput and tails are printed as figures but
// not gated: on the 2-CPU host the benchmark was built on, time stolen
// by other tenants (up to an eighth of the CPU) moved them by a fifth to
// a half between runs of the same code, while CPU time per operation
// held within a few percent.
var endToEnd = []metricDef{
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// sessionKinds are the query families timed one by one.
var sessionKinds = []string{"score", "string-substring", "substring-string", "suffix-prefix", "prefix-suffix", "windows", "best-window"}

// selfLayers are the layers whose mean span self time is reported.
var selfLayers = []string{"core", "combing", "hybrid", "steadyant", "bitlcs", "banded", "dominance", "query", "server", "net", "store", "stream"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"combing.ns_per_cell", "ns", "lower"},
		{"hybrid.grid_ms", "ms", "lower"},
		{"steadyant.multiply_ms", "ms", "lower"},
		{"bitlcs.score_ms", "ms", "lower"},
		{"banded.distance_ms", "ms", "lower"},
		{"dominance.prepare_us", "us", "lower"},
	}
	for _, k := range sessionKinds {
		defs = append(defs, metricDef{"query.session_ns." + k, "ns", "lower"})
	}
	defs = append(defs,
		metricDef{"query.acquire_hit_us", "us", "lower"},
		metricDef{"query.acquire_miss_ms", "ms", "lower"},
		metricDef{"query.batch_us", "us", "lower"},
		metricDef{"query.hit_ratio", "ratio", "higher"},
		metricDef{"query.evictions", "per_1k_req", "lower"},
		metricDef{"query.sheds", "per_1k_req", "lower"},
		metricDef{"query.group_append_ms", "ms", "lower"},
		metricDef{"server.handler_us", "us", "lower"},
		metricDef{"net.transport_us", "us", "lower"},
		metricDef{"server.allocs_per_call", "count", "lower"},
		metricDef{"loadgen.lag_ms", "ms", "lower"},
		metricDef{"store.get_us", "us", "lower"},
		metricDef{"store.put_us", "us", "lower"},
		metricDef{"store.hit_ratio", "ratio", "higher"},
		metricDef{"stream.leaf_solves_per_round", "count", "lower"},
		metricDef{"stream.leaf_shares_per_round", "count", "higher"},
		metricDef{"stream.compositions_per_round", "count", "lower"},
		metricDef{"stream.group_append_ms", "ms", "lower"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_us." + l, "us", "lower"})
	}
	return append(defs, metricDef{"trace.overhead_p50_pct", "%", "lower"})
}()

// runCtx is one process's run: its seed, parallelism, work
// directory, memoized oracle answers and answer-check failures.
type runCtx struct {
	seed    int64
	workers int
	dir     string
	oracle  map[string]int
	wrong   []string
	// checking is the time spent checking answers, outside every timed
	// region.
	checking time.Duration
	// calls are serve-phase /v1/batch bodies kept for the ladder's
	// replays (traced runs only).
	calls [][]byte
}

// wrongf records a failed answer check.
func (c *runCtx) wrongf(format string, args ...any) {
	if len(c.wrong) < 20 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	} else if len(c.wrong) == 20 {
		c.wrong = append(c.wrong, "…")
	}
}

// checked adds the time since t0 to the answer-checking total.
func (c *runCtx) checked(t0 time.Time) { c.checking += time.Since(t0) }

// memo returns the oracle answer for key, computing it once per run.
func (c *runCtx) memo(key string, f func() int) int {
	if v, ok := c.oracle[key]; ok {
		return v
	}
	v := f()
	c.oracle[key] = v
	return v
}

// result is the final line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: offline, serve-hot, serve-store or stream-group")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	repeat := fs.Int("repeat", 0, "re-run over this many seeds (seed, seed+1, …) and print each metric's median and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload <offline|serve-hot|serve-store|stream-group> --seed N --seconds S (≥1) --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, w.name, *seed, *seconds, *trace, stdout, stderr)
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := workDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	c := &runCtx{seed: *seed, workers: runtime.NumCPU(), dir: dir, oracle: make(map[string]int)}
	m := collectMeta(w.name, *seed, *seconds, *trace)
	metaLine, _ := json.Marshal(m)
	fmt.Fprintf(stdout, "# meta %s\n", metaLine)

	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = endToEndRun(c, w, d, stdout)
	} else {
		res, err = tracedRun(c, w, d, m, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# answer checks took %.2fs\n", c.checking.Seconds())
	for _, msg := range c.wrong {
		fmt.Fprintln(stdout, "# WRONG", msg)
	}
	res.Correct = len(c.wrong) == 0
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timeSetups builds the system under test n times, recording each
// build's CPU and wall time and releasing every build but the last
// (release may be nil when there is nothing to release). setup_s is the
// CPU time: the work set-up costs, which the host's load does not move
// (on the 2-CPU host the benchmark was built on, stolen time moved the
// wall-clock medians of these 10–30 ms set-ups by up to 77% between sets
// of runs). Before the caller's timed
// phase starts, the heap is collected, freed memory is returned to the
// OS and the peak-RSS mark is reset, so peak_rss_mb is the timed
// phase's own peak.
func timeSetups[T any](p *phase, n int, build func() (T, error), release func(T) error) (T, error) {
	var cur T
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			if err := release(cur); err != nil {
				return cur, err
			}
		}
		t0, c0 := time.Now(), cpuTime()
		v, err := build()
		if err != nil {
			return cur, err
		}
		p.setups = append(p.setups, cpuTime()-c0)
		p.setupsWall = append(p.setupsWall, time.Since(t0))
		cur = v
	}
	debug.FreeOSMemory()
	resetPeakRSS()
	return cur, nil
}

// buildDir is the checkout-relative directory for build outputs and
// run files; run.sh builds into it too.
const buildDir = ".bench_build"

// workDir makes this run's work directory under buildDir.
func workDir() (string, error) {
	parent := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

// checkCheckout refuses to run outside a checkout of the repository:
// the benchmark measures the module around it.
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root (no go.mod here): %w", err)
	}
	return nil
}

// setupReps is how many times an end-to-end run sets the system up;
// setup_s reports the median.
const setupReps = 5

func endToEndRun(c *runCtx, w workload, d time.Duration, out io.Writer) (*result, error) {
	p, err := w.measure(c, d, setupReps, nil)
	if err != nil {
		return nil, err
	}
	p.figures = append(p.figures,
		figure{"ops_per_s", p.opsPerS, "1/s", "the workload's throughput (not gated)"},
		figure{"p50_ms", ms(p.p50), "ms", "the headline operation's median wall time (not gated)"},
		figure{"tail_ms", ms(p.tail), "ms", p.tailNote + " (not gated)"},
		figure{"setup_wall_s", seconds(p.setupsWall), "s", "median wall time of the set-ups (not gated)"},
		figure{"peak_rss_mb", p.peakRSSMB, "MB", "VmHWM over the timed phase"})
	for _, f := range p.figures {
		fmt.Fprintf(out, "# figure %-24s %14.6g %-9s %s\n", f.name, f.value, f.unit, f.note)
	}
	vals := map[string]float64{
		"cpu_ms_per_op": ms(p.cpuPerOp),
		"setup_s":       seconds(p.setups),
		"heap_live_mb":  p.heapMB,
	}
	return newResult(p.attempted, p.failed, endToEnd, vals)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// seconds is the median of ds in seconds.
func seconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return median(s)
}
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// newResult packs the values of every metric in defs, refusing a run
// that failed to produce one.
func newResult(attempted, failed int64, defs []metricDef, vals map[string]float64) (*result, error) {
	if attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res := &result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metricJSON, len(defs))}
	var missing []string
	for _, def := range defs {
		v, ok := vals[def.name]
		if !ok {
			missing = append(missing, def.name)
			continue
		}
		res.Metrics[def.name] = metricJSON{Value: v, Unit: def.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// tracedRun measures the workload untraced and traced for a third of
// the run each, fills per-layer metrics the workload's own layers do
// not reach from short traced phases of the serve-store and
// stream-group shapes, then runs the per-layer ladder.
func tracedRun(c *runCtx, w workload, d time.Duration, m meta, out io.Writer) (*result, error) {
	plain, err := w.measure(c, d/3, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := w.measure(c, d/3, 1, tr)
	if err != nil {
		return nil, err
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	vals := traced.layer
	overhead := 100 * (float64(traced.p50) - float64(plain.p50)) / float64(plain.p50)
	fmt.Fprintf(out, "# trace overhead: p50 %v untraced, %v traced (%+.2f%%)\n", plain.p50, traced.p50, overhead)

	for _, name := range []string{"serve-store", "stream-group"} {
		if name == w.name || !missingAny(vals, fillerProvides[name]) {
			continue
		}
		filler, _ := findWorkload(name)
		p, err := filler.measure(c, d/8, 1, tr)
		if err != nil {
			return nil, err
		}
		attempted += p.attempted
		failed += p.failed
		for k, v := range p.layer {
			if _, ok := vals[k]; !ok {
				vals[k] = v
			}
		}
		fmt.Fprintf(out, "# filled per-layer metrics from a %v traced %s phase\n", d/8, name)
	}
	n, err := ladder(c, tr, vals)
	if err != nil {
		return nil, err
	}
	attempted += n

	spans := tr.snapshot()
	self := selfByLayer(spans)
	for _, l := range selfLayers {
		if s, ok := self[l]; ok {
			vals["self_us."+l] = us(s.mean)
		}
	}
	vals["trace.overhead_p50_pct"] = overhead
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		fmt.Fprintf(out, "# self %-10s %10.3f us/span over %d spans\n", l, us(self[l].mean), self[l].spans)
	}
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, c.seed))
	if err := writeSpans(path, m, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# wrote %d spans to %s\n", len(spans), path)
	for _, def := range perLayer {
		if v, ok := vals[def.name]; ok {
			fmt.Fprintf(out, "# layer %-34s %14.6g %s\n", def.name, v, def.unit)
		}
	}
	return newResult(attempted, failed, perLayer, vals)
}

// fillerProvides lists per-layer metrics only a workload phase yields.
var fillerProvides = map[string][]string{
	"serve-store":  {"query.hit_ratio", "query.evictions", "query.sheds", "server.handler_us", "net.transport_us", "loadgen.lag_ms", "store.hit_ratio"},
	"stream-group": {"stream.leaf_solves_per_round", "stream.leaf_shares_per_round", "stream.compositions_per_round"},
}

func missingAny(vals map[string]float64, names []string) bool {
	for _, n := range names {
		if _, ok := vals[n]; !ok {
			return true
		}
	}
	return false
}
