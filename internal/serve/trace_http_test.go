package serve_test

// Correlation and cost-attribution tests for the trace-export surface:
// W3C traceparent propagation, X-Request-Id issuance, per-request ids
// staying distinct through batch coalescing, ?trace=1 cost payloads,
// span truncation accounting, and the -trace-log JSONL sink.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/serve"
)

var spanIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

func postJSONHeaders(t *testing.T, url string, hdr map[string]string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decodeQueryResponse(t *testing.T, body []byte) serve.QueryResponse {
	t.Helper()
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return qr
}

// TestTraceparentPropagation: a request arriving with a W3C traceparent
// joins that trace — the response echoes the inbound trace-id with this
// server's request id as the parent-id — and the same ids come back in
// the ?trace=1 payload and the X-Request-Id header, one handle across
// all three surfaces.
func TestTraceparentPropagation(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.Registry().Register("grid", graph.Grid(5, 5), false); err != nil {
		t.Fatal(err)
	}
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	inbound := "00-" + traceID + "-00f067aa0ba902b7-01"
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}
	resp, body := postJSONHeaders(t, ts.URL+"/decide?trace=1", map[string]string{"traceparent": inbound}, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d: %s", resp.StatusCode, body)
	}

	reqID := resp.Header.Get("X-Request-Id")
	if !spanIDRe.MatchString(reqID) {
		t.Fatalf("X-Request-Id = %q, want 16 hex digits", reqID)
	}
	echo := resp.Header.Get("traceparent")
	want := "00-" + traceID + "-" + reqID + "-01"
	if echo != want {
		t.Fatalf("traceparent echo = %q, want %q", echo, want)
	}
	if strings.Contains(echo, "00f067aa0ba902b7") {
		t.Fatal("response reused the inbound parent-id instead of its own span id")
	}

	qr := decodeQueryResponse(t, body)
	if qr.Trace == nil {
		t.Fatal("?trace=1 response has no trace")
	}
	if qr.Trace.RequestID != reqID {
		t.Fatalf("trace.requestId = %q, header = %q", qr.Trace.RequestID, reqID)
	}
	if qr.Trace.TraceID != traceID {
		t.Fatalf("trace.traceId = %q, want %q", qr.Trace.TraceID, traceID)
	}
	if qr.Trace.Cost == nil || qr.Trace.Cost.Emissions == 0 {
		t.Fatalf("traced decide carries no cost: %+v", qr.Trace.Cost)
	}

	// A malformed traceparent restarts the trace: no echo, but the
	// request id is still issued.
	resp, _ = postJSONHeaders(t, ts.URL+"/decide", map[string]string{"traceparent": "00-zzzz-bad-01"}, req)
	if resp.Header.Get("traceparent") != "" {
		t.Fatalf("malformed traceparent echoed: %q", resp.Header.Get("traceparent"))
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("malformed traceparent suppressed X-Request-Id")
	}
}

// TestRequestIDsDistinctAcrossCoalescedBatch: requests that share one
// micro-batch keep distinct request ids (correlation is per-request,
// not per-batch), and traced requests ride singleton batches so their
// span timelines never blend.
func TestRequestIDsDistinctAcrossCoalescedBatch(t *testing.T) {
	// A long window guarantees the two untraced requests coalesce.
	s := serve.New(serve.Options{
		Pipeline:  core.Options{Seed: 7, MaxRuns: 4},
		Scheduler: serve.SchedulerOptions{Window: 200 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if _, err := s.Registry().Register("grid", graph.Grid(5, 5), false); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}

	ids := make([]string, 2)
	traceIDs := make([]string, 2)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/decide", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("decide %d: %d: %s", i, resp.StatusCode, body)
				return
			}
			ids[i] = resp.Header.Get("X-Request-Id")
		}(i)
	}
	wg.Wait()
	st := s.Stats().Scheduler
	if st.Batches != 1 || st.Requests != 2 {
		t.Fatalf("requests did not coalesce: %d batches for %d requests", st.Batches, st.Requests)
	}
	if ids[0] == "" || ids[0] == ids[1] {
		t.Fatalf("coalesced requests share or lack ids: %q, %q", ids[0], ids[1])
	}

	// Two concurrent traced requests: distinct ids, and each rides its
	// own singleton batch (batches grows by two).
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/decide?trace=1", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("traced decide %d: %d: %s", i, resp.StatusCode, body)
				return
			}
			qr := decodeQueryResponse(t, body)
			if qr.Trace == nil {
				t.Errorf("traced decide %d: no trace", i)
				return
			}
			ids[i] = resp.Header.Get("X-Request-Id")
			traceIDs[i] = qr.Trace.RequestID
			if len(qr.Trace.Spans) == 0 {
				t.Errorf("traced decide %d: empty span timeline", i)
			}
		}(i)
	}
	wg.Wait()
	if ids[0] == "" || ids[0] == ids[1] {
		t.Fatalf("traced requests share or lack ids: %q, %q", ids[0], ids[1])
	}
	if traceIDs[0] != ids[0] || traceIDs[1] != ids[1] {
		t.Fatalf("trace payload ids %v do not match headers %v", traceIDs, ids)
	}
	if st := s.Stats().Scheduler; st.Batches != 3 {
		t.Fatalf("traced requests coalesced: %d total batches, want 3 (1 + 2 singletons)", st.Batches)
	}
}

// TestTraceTruncation: a tiny TraceSpanLimit forces span drops; the
// response marks the timeline truncated and the drop total reaches the
// planarsi_trace_dropped_total metric.
func TestTraceTruncation(t *testing.T) {
	s := serve.New(serve.Options{
		Pipeline:       core.Options{Seed: 7, MaxRuns: 4},
		Scheduler:      serve.SchedulerOptions{Window: time.Millisecond},
		TraceSpanLimit: 2,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if _, err := s.Registry().Register("grid", graph.Grid(6, 6), false); err != nil {
		t.Fatal(err)
	}
	// A miss runs every band of every run: far more than 2 spans.
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(3))}
	resp, body := postJSON(t, ts.URL+"/decide?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d: %s", resp.StatusCode, body)
	}
	qr := decodeQueryResponse(t, body)
	if qr.Trace == nil {
		t.Fatal("no trace in response")
	}
	if len(qr.Trace.Spans) != 2 {
		t.Fatalf("spans = %d, want the 2-span cap", len(qr.Trace.Spans))
	}
	if !qr.Trace.Truncated || qr.Trace.Dropped == 0 {
		t.Fatalf("truncation not reported: truncated=%v dropped=%d", qr.Trace.Truncated, qr.Trace.Dropped)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	line := sampleLine(metrics, "planarsi_trace_dropped_total")
	if line == "" {
		t.Fatal("planarsi_trace_dropped_total missing from /metrics")
	}
	if strings.HasSuffix(line, " 0") {
		t.Fatalf("planarsi_trace_dropped_total stayed zero: %q", line)
	}
}

// TestIntrospectionMetricFamilies: after real traffic, /metrics carries
// the memo-cache, pool and Go-runtime families with plausible values.
func TestIntrospectionMetricFamilies(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.Registry().Register("grid", graph.Grid(5, 5), false); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}
	if resp, body := postJSON(t, ts.URL+"/decide", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d: %s", resp.StatusCode, body)
	}

	_, body := getBody(t, ts.URL+"/metrics")
	for _, family := range []string{
		"planarsi_trace_dropped_total",
		"planarsi_pool_steals_total",
		"planarsi_pool_parks_total",
		"planarsi_pool_resizes_total",
		"planarsi_pool_workers",
		"planarsi_pool_active_workers",
		"planarsi_index_memo_hits_total",
		"planarsi_index_memo_misses_total",
		"planarsi_index_memo_build_seconds_total",
		"planarsi_index_memo_bytes",
		"planarsi_index_memo_entries",
		"planarsi_go_goroutines",
		"planarsi_go_heap_alloc_bytes",
		"planarsi_go_heap_sys_bytes",
		"planarsi_go_heap_objects",
		"planarsi_go_next_gc_bytes",
		"planarsi_go_gcs_total",
		"planarsi_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(body, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}

	// The cold decide built covers: per-(graph, class) misses and build
	// time are nonzero, and the artifacts are resident.
	for _, name := range []string{
		`planarsi_index_memo_misses_total{class="cover",graph="grid"}`,
		`planarsi_index_memo_build_seconds_total{class="cover",graph="grid"}`,
		`planarsi_index_memo_bytes{class="cover",graph="grid"}`,
		`planarsi_index_memo_entries{class="clustering",graph="grid"}`,
	} {
		line := sampleLine(body, name)
		if line == "" {
			t.Errorf("missing sample %s", name)
			continue
		}
		if strings.HasSuffix(line, " 0") {
			t.Errorf("%s stayed zero", name)
		}
	}
	if line := sampleLine(body, "planarsi_go_goroutines"); line == "" || strings.HasSuffix(line, " 0") {
		t.Errorf("implausible goroutine gauge: %q", line)
	}
}

// TestTraceLogJSONL: every instrumented request appends one parseable
// JSONL record; traced requests carry spans and cost, untraced ones
// stay lean, and the request ids match the response headers.
func TestTraceLogJSONL(t *testing.T) {
	var sink serve.SyncBuffer
	s := serve.New(serve.Options{
		Pipeline:  core.Options{Seed: 7, MaxRuns: 4},
		Scheduler: serve.SchedulerOptions{Window: time.Millisecond},
		TraceLog:  &sink,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if _, err := s.Registry().Register("grid", graph.Grid(5, 5), false); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}
	respPlain, _ := postJSON(t, ts.URL+"/decide", req)
	respTraced, _ := postJSON(t, ts.URL+"/decide?trace=1", req)

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace log lines = %d, want 2:\n%s", len(lines), sink.String())
	}
	type rec struct {
		RequestID string          `json:"requestId"`
		Endpoint  string          `json:"endpoint"`
		Status    int             `json:"status"`
		DurMicros float64         `json:"durMicros"`
		Cost      json.RawMessage `json:"cost"`
		Spans     json.RawMessage `json:"spans"`
	}
	var plain, traced rec
	if err := json.Unmarshal([]byte(lines[0]), &plain); err != nil {
		t.Fatalf("line 0: %v: %s", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &traced); err != nil {
		t.Fatalf("line 1: %v: %s", err, lines[1])
	}
	if plain.RequestID != respPlain.Header.Get("X-Request-Id") {
		t.Fatalf("plain record id %q != header %q", plain.RequestID, respPlain.Header.Get("X-Request-Id"))
	}
	if traced.RequestID != respTraced.Header.Get("X-Request-Id") {
		t.Fatalf("traced record id %q != header %q", traced.RequestID, respTraced.Header.Get("X-Request-Id"))
	}
	if plain.Endpoint != "decide" || plain.Status != http.StatusOK || plain.DurMicros <= 0 {
		t.Fatalf("bad plain record: %+v", plain)
	}
	if plain.Spans != nil || plain.Cost != nil {
		t.Fatalf("untraced record carries trace payload: %s", lines[0])
	}
	if traced.Spans == nil || traced.Cost == nil {
		t.Fatalf("traced record lacks spans/cost: %s", lines[1])
	}
}

// sampleLine returns the exposition line whose name{labels} prefix
// matches exactly, "" when absent.
func sampleLine(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return ""
}
