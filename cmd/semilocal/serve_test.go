package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"semilocal"
)

// TestServeAddrEndToEnd boots the CLI serve mode on a dynamic port via
// the test hooks, drives one batch and one stream call over real HTTP,
// checks /metrics and /healthz, then shuts down and checks the final
// counter line — the CLI-level smoke over the internal/server wall.
func TestServeAddrEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	serveReady = func(addr string) { ready <- addr }
	serveStop = stop
	defer func() { serveReady, serveStop = nil, nil }()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-serve-addr", "127.0.0.1:0", "-tenant-quota", "8"}, &out)
	}()
	addr := <-ready
	base := "http://" + addr

	body := `{"tenant":"cli-test","requests":[
		{"a":"abracadabra","b":"alakazam","kind":"score"},
		{"a":"GATTACA","b":"TACGATTACA","kind":"best-window","width":5}]}`
	resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var br struct {
		Results []struct {
			Score int    `json:"score"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("request %d: %s", i, r.Error)
		}
	}
	if want := semilocal.LCS([]byte("abracadabra"), []byte("alakazam")); br.Results[0].Score != want {
		t.Errorf("score = %d, want %d", br.Results[0].Score, want)
	}

	sresp, err := http.Post(base+"/v1/stream", "application/json",
		strings.NewReader(`{"pattern":"GATTACA","ops":[{"op":"append","chunk":"TACGATTACA"},{"op":"query","kind":"score"}]}`))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", sresp.StatusCode, sbody)
	}

	for _, path := range []string{"/metrics", "/healthz"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, r.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(raw), `semilocal_engine_counter{name="server_requests"} 4`) {
			t.Errorf("metrics missing the tier request counter")
		}
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "# serving: http://"+addr) {
		t.Errorf("output missing serving banner: %q", text)
	}
	if !strings.Contains(text, "server_requests=4") {
		t.Errorf("final counter line should account all 4 requests: %q", text)
	}
}

// TestServeFlagRules extends the cross-flag table for the serve mode's
// flags (kept separate from TestFlagValidationTable so the serve mode
// owns its cases).
func TestServeFlagRules(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"tenant-quota alone", []string{"-tenant-quota", "8", "-a-text", "AB", "-b-text", "BA", "score"}, "-tenant-quota requires -serve-addr"},
		{"serve-addr+serve-batch", []string{"-serve-addr", ":0", "-serve-batch", "/nope"}, "-serve-addr cannot be combined with -serve-batch"},
		{"serve-addr+stream", []string{"-serve-addr", ":0", "-stream", "/nope", "-a-text", "AB"}, "cannot be combined"},
		{"serve-addr+edit", []string{"-serve-addr", ":0", "-edit"}, "-serve-addr cannot be combined with -edit"},
		{"serve-addr+metrics", []string{"-serve-addr", ":0", "-metrics", "-"}, "-serve-addr cannot be combined with -metrics"},
		{"serve-addr bad chaos", []string{"-serve-addr", "127.0.0.1:0", "-chaos", "nonsense"}, "-chaos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %q, want it to contain %q", tc.args, err, tc.wantErr)
			}
		})
	}
	// Engine hardening flags are valid with -serve-addr; prove it by
	// booting with all of them and shutting straight down.
	ready := make(chan string, 1)
	stop := make(chan struct{})
	serveReady = func(addr string) { ready <- addr }
	serveStop = stop
	defer func() { serveReady, serveStop = nil, nil }()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-serve-addr", "127.0.0.1:0", "-tenant-quota", "4",
			"-max-queue", "16", "-retries", "2", "-retry-backoff", "1ms",
			"-deadline", "1s", "-degrade-below", "10ms",
			"-chaos", "acquire:latency:10:1ms", "-store-dir", t.TempDir(),
		}, io.Discard)
	}()
	addr := <-ready
	if r, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err != nil {
		t.Fatalf("healthz: %v", err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("healthz = %d", r.StatusCode)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run with full hardening flags: %v", err)
	}
}
