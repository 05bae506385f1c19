package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"semilocal"
	"semilocal/internal/obs"
	"semilocal/internal/query"
	"semilocal/internal/server"
)

// Wall-clock durations, percentages and latency-histogram placements
// vary run to run; the goldens pin everything else — table structure,
// stage names, metric names and labels, and every deterministic count.
var (
	durRE    = regexp.MustCompile(`\b\d+(?:\.\d+)?(?:ns|µs|ms|s)\b`)
	pctRE    = regexp.MustCompile(`\b\d+(?:\.\d+)?%`)
	bucketRE = regexp.MustCompile(`(_bucket\{[^}]*\}) [0-9]+`)
	sumRE    = regexp.MustCompile(`(_sum\{[^}]*\}) [0-9eE.+-]+`)
	spaceRE  = regexp.MustCompile(` {2,}`)
)

func scrubObs(s string) string {
	s = durRE.ReplaceAllString(s, "DUR")
	s = pctRE.ReplaceAllString(s, "PCT")
	s = bucketRE.ReplaceAllString(s, "$1 N")
	s = sumRE.ReplaceAllString(s, "$1 V")
	// Column padding in the breakdown table depends on the width of the
	// scrubbed duration strings; collapse it so only structure is pinned.
	s = spaceRE.ReplaceAllString(s, " ")
	return s
}

// TestObsGolden pins the -trace-stages breakdown table and the /metrics
// exposition text (through the -metrics - dump, which prints the same
// bytes the HTTP endpoint serves). Inputs are inline or fixed files and
// workers are sequential, so all counts are deterministic; only
// latencies are scrubbed.
func TestObsGolden(t *testing.T) {
	batch := filepath.Join("testdata", "batch.txt")
	stream := filepath.Join("testdata", "stream.txt")
	cases := []struct {
		name string
		args []string
	}{
		{"score-trace", []string{"-a-text", "GATTACA", "-b-text", "TACGATTACA", "-trace-stages", "score"}},
		{"serve-batch-trace", []string{"-serve-batch", batch, "-trace-stages"}},
		{"serve-batch-metrics", []string{"-serve-batch", batch, "-metrics", "-"}},
		{"stream-trace", []string{"-a-text", "GATTACA", "-stream", stream, "-trace-stages"}},
		{"stream-metrics", []string{"-a-text", "GATTACA", "-stream", stream, "-metrics", "-"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			goldenCompare(t, tc.name, scrubObs(buf.String()))
		})
	}
}

// TestObsFlagErrors: the observability flags reject meaningless
// combinations instead of silently ignoring them.
func TestObsFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-metrics", "127.0.0.1:0", "-a-text", "x", "-b-text", "y", "score"},
		{"-edit", "-trace-stages", "-a-text", "x", "-b-text", "y", "score"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestMetricsEndpoints starts the real -metrics HTTP server against a
// live engine and checks all three endpoint families respond with the
// expected shapes.
func TestMetricsEndpoints(t *testing.T) {
	rec := semilocal.NewStageRecorder()
	engine := semilocal.NewEngine(semilocal.EngineOptions{Obs: rec})
	defer engine.Close()
	reqs := []semilocal.BatchRequest{
		{A: []byte("GATTACA"), B: []byte("TACGATTACA"), Kind: semilocal.QueryScore},
	}
	if res := engine.BatchSolve(context.Background(), reqs); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}

	ms, err := startMetricsServer("127.0.0.1:0", rec, engine)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.stop()
	get := func(path string) string {
		resp, err := http.Get("http://" + ms.addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`semilocal_stage_duration_seconds_count{stage="solve"} 1`,
		`semilocal_engine_counter{name="cache_misses"} 1`,
		`semilocal_obs_counter{name="comb_cells"} 70`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	var flat map[string]int64
	if err := json.Unmarshal(vars["semilocal"], &flat); err != nil {
		t.Fatalf("expvar semilocal variable: %v", err)
	}
	if flat["obs_stage_solve_count"] != 1 || flat["obs_comb_cells"] != 70 || flat["cache_misses"] != 1 {
		t.Errorf("expvar values wrong: %v", flat)
	}

	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline returned nothing")
	}

	// A second server in the same process must re-point the expvar
	// variable, not panic on duplicate registration.
	rec2 := semilocal.NewStageRecorder()
	engine2 := semilocal.NewEngine(semilocal.EngineOptions{Obs: rec2})
	defer engine2.Close()
	ms2, err := startMetricsServer("127.0.0.1:0", rec2, engine2)
	if err != nil {
		t.Fatal(err)
	}
	ms2.stop()
}

// TestExpositionWellFormed parses the two Prometheus expositions — the
// CLI -metrics - dump and a live default-config Server.WriteMetrics — and
// checks that every sample sits in a family declared by exactly one
// # TYPE line, that no series repeats, and that each value is exported
// with its kind: monotonic values under counter families, values that
// move both ways under gauge families.
func TestExpositionWellFormed(t *testing.T) {
	var cli bytes.Buffer
	if err := run([]string{"-serve-batch", filepath.Join("testdata", "batch.txt"), "-metrics", "-"}, &cli); err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{Engine: query.Options{Obs: obs.New()}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, body := range map[string]string{
		"/v1/batch":  `{"requests":[{"a":"abracadabra","b":"alakazam","kind":"score"},{"a":"GATTACA","b":"TACGATTACA","kind":"score"}]}`,
		"/v1/stream": `{"pattern":"GATTACA","ops":[{"op":"append","chunk":"TACGATTACA"}]}`,
	} {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, rr.Code, rr.Body)
		}
	}
	var tier bytes.Buffer
	srv.WriteMetrics(&tier)

	wantKinds := map[string]string{
		"cache_hits": "counter", "requests": "counter",
		"cache_bytes": "gauge", "requests_inflight": "gauge", "open_spans": "gauge",
	}
	checkExposition(t, "cli", cli.String(), wantKinds)
	wantKinds["server_requests"] = "counter"
	checkExposition(t, "server", tier.String(), wantKinds)
}

// checkExposition validates one exposition; text before the first
// # HELP line (the CLI's answers and summary comments) is skipped. A
// value named x is a sample labelled name="x" or the unlabelled metric
// semilocal_obs_x; every such sample must sit in a family of the wanted
// kind.
func checkExposition(t *testing.T, what, text string, wantKinds map[string]string) {
	t.Helper()
	if i := strings.Index(text, "# HELP "); i >= 0 {
		text = text[i:]
	}
	kinds := map[string]string{} // family → declared type
	series := map[string]bool{}
	seen := map[string]int{} // value name → samples checked
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if _, dup := kinds[f[2]]; dup {
				t.Errorf("%s: family %s declared twice", what, f[2])
			}
			kinds[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("%s: malformed sample %q", what, line)
			continue
		}
		key := line[:sp]
		if series[key] {
			t.Errorf("%s: series %s appears twice", what, key)
		}
		series[key] = true
		metric, _, _ := strings.Cut(key, "{")
		family := metric
		if _, ok := kinds[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(metric, suffix); ok && kinds[base] == "histogram" {
					family = base
				}
			}
		}
		kind, ok := kinds[family]
		if !ok {
			t.Errorf("%s: sample %q belongs to no declared family", what, line)
			continue
		}
		for name, want := range wantKinds {
			if strings.Contains(key, `name="`+name+`"`) || metric == "semilocal_obs_"+name {
				seen[name]++
				if kind != want {
					t.Errorf("%s: %s exported under %s family %s, want a %s family", what, name, kind, family, want)
				}
			}
		}
	}
	for name := range wantKinds {
		if seen[name] == 0 {
			t.Errorf("%s: no sample for %s", what, name)
		}
	}
}
