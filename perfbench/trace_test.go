package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"one inside", 0, 100, [][2]int64{{10, 30}}, 20},
		{"disjoint", 0, 100, [][2]int64{{50, 60}, {10, 30}}, 30},
		{"overlapping", 0, 100, [][2]int64{{10, 30}, {20, 50}}, 40},
		{"nested", 0, 100, [][2]int64{{10, 90}, {20, 30}}, 80},
		{"touching", 0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},
		{"clipped", 10, 50, [][2]int64{{0, 20}, {40, 70}}, 20},
		{"outside", 10, 50, [][2]int64{{60, 70}}, 0},
	} {
		if got := covered(tc.lo, tc.hi, tc.ivs); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "net.call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 20, End: 70},
		{ID: 3, Parent: 2, Name: "query.batch", Start: 30, End: 50},
		{ID: 4, Parent: 2, Name: "query.batch", Start: 40, End: 60}, // concurrent with 3
		{ID: 5, Name: "net.call", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 20, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	byLayer := selfByLayer(spans)
	if got := byLayer["net"]; got.spans != 2 || got.mean != 40 {
		t.Errorf("net layer = %+v, want 2 spans of mean self 40ns", got)
	}
	if got := byLayer["query"]; got.spans != 2 || got.mean != 20 {
		t.Errorf("query layer = %+v, want 2 spans of mean self 20ns", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start("core.solve", 0, 1)
	sp.end()
	if sp.ID() != 0 || tr.count() != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestTracerParentsAndWrite(t *testing.T) {
	tr := newTracer()
	root := tr.start("bench.round", 0, 7)
	child := tr.start("stream.append", root.ID(), 7)
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[0].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start > spans[0].Start || spans[1].End < spans[0].End {
		t.Fatalf("child %+v not inside parent %+v", spans[0], spans[1])
	}
	path := filepath.Join(t.TempDir(), "trace", "spans.jsonl")
	if err := writeSpans(path, collectMeta("offline", 1, 10, 1), spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 3 || !strings.HasPrefix(string(data), `{"meta":{"workload":"offline"`) {
		t.Fatalf("wrote %d lines, want the metadata and 2 spans:\n%s", lines, data)
	}
}
