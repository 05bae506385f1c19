package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meta identifies a run: what ran, on which host, from which source.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Source fingerprints the module's .go and go.mod files, which
	// identifies the code where no VCS stamp exists (a plain export of
	// the tree).
	Source  string `json:"source"`
	Started string `json:"started"`
}

func collectMeta(workload string, seed int64, seconds, trace int) meta {
	return meta{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceFingerprint("."),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceFingerprint hashes the paths and contents of every .go and
// go.mod file under root, skipping the build directory.
func sourceFingerprint(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() && (d.Name() == buildDir || strings.HasPrefix(d.Name(), ".git")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS sets the kernel's peak-RSS mark (VmHWM) to the current
// RSS, where Linux supports it; elsewhere the peak covers the whole run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the peak then spans set-up too
}

// repeatRuns re-executes this binary n times over seeds seed…seed+n−1
// and prints, for every metric, the median and the interquartile
// spread (as a share of the median) that the acceptance check computes,
// next to the metric's bound in BENCHMARK.json when one is found.
func repeatRuns(n int, workload string, seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
			fmt.Fprintf(stderr, "perfbench: seed %d: bad result line %q\n", s, lines[len(lines)-1])
			return 1
		}
		parts := []string{fmt.Sprintf("seed=%d", s)}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for _, name := range sortedKeys(res.Metrics) {
			parts = append(parts, fmt.Sprintf("%s=%.6g", name, res.Metrics[name].Value))
		}
		fmt.Fprintln(stdout, "#", strings.Join(parts, " "))
	}
	fmt.Fprintf(stdout, "%-34s %14s %14s %14s %9s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range sortedKeys(values) {
		vals := values[name]
		q1, q3 := quartiles(vals)
		b := "-"
		if v, ok := bounds[name]; ok {
			b = strconv.FormatFloat(v, 'g', -1, 64)
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %14.6g %14.6g %9.4f %7s %s\n", name, median(vals), q1, q3, spread(vals), b, units[name])
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchmarkFile is the subset of BENCHMARK.json the tools here read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBounds maps end-to-end metric names to their bounds; a missing or
// unreadable file yields no bounds.
func readBounds(path string) map[string]float64 {
	out := make(map[string]float64)
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bf benchmarkFile
	if json.Unmarshal(data, &bf) != nil {
		return out
	}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far. Time the
// host takes away from the process (steal, descheduling) is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the Go runtime's live heap (its count of live
// bytes as of the last collection) every heapEvery until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

const heapEvery = 50 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.mb = append(h.mb, float64(sample[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the median live
// heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.mb)
}
