package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spt"
)

func newHTTPServer(t *testing.T, cfg Config, run runFn) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg, run)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdownNow(t, s)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return resp, v
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return resp, v
}

const mcfJob = `{"type": "grid", "cells": [{"workload": "mcf", "budget": 1000}]}`

func TestHTTPSubmitAndStatus(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1}, instantRun)

	resp, v := postJob(t, ts, mcfJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	if v["outcome"] != "queued" {
		t.Fatalf("outcome %v, want queued", v["outcome"])
	}
	id, _ := v["id"].(string)
	if id == "" {
		t.Fatal("no job id in response")
	}
	waitDone(t, s, id)

	resp, v = getJSON(t, ts.URL+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK || v["state"] != "done" {
		t.Fatalf("GET %d %v", resp.StatusCode, v)
	}
	if _, ok := v["result"].(map[string]any); !ok {
		t.Fatalf("done job has no embedded result: %v", v)
	}

	// Replay: the same POST is now answered 200 from cache.
	resp, v = postJob(t, ts, mcfJob)
	if resp.StatusCode != http.StatusOK || v["outcome"] != "cached" {
		t.Fatalf("replay: %d %v", resp.StatusCode, v["outcome"])
	}
}

func TestHTTPCoalescedOutcome(t *testing.T) {
	release := make(chan struct{})
	run, started := blockingRun(release)
	s, ts := newHTTPServer(t, Config{Workers: 1}, run)

	_, first := postJob(t, ts, mcfJob)
	resp, second := postJob(t, ts, mcfJob)
	if resp.StatusCode != http.StatusAccepted || second["outcome"] != "coalesced" {
		t.Fatalf("coalesce: %d %v", resp.StatusCode, second["outcome"])
	}
	if second["id"] != first["id"] {
		t.Fatal("coalesced request got a different id")
	}
	close(release)
	waitDone(t, s, first["id"].(string))
	if *started != 1 {
		t.Fatalf("backend ran %d times", *started)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1}, instantRun)

	for _, body := range []string{
		`not json`,
		`{"type": "bogus"}`,
		`{"type": "grid"}`,
		`{"type": "grid", "cells": [{"workload": "mcf"}], "surprise": 1}`,
	} {
		resp, v := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400 (%v)", body, resp.StatusCode, v)
		}
		if v["error"] == "" {
			t.Errorf("POST %q: no error message", body)
		}
	}

	resp, _ := getJSON(t, ts.URL+"/v1/jobs/deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown id: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPCancel(t *testing.T) {
	release := make(chan struct{})
	run, _ := blockingRun(release)
	s, ts := newHTTPServer(t, Config{Workers: 1}, run)
	defer close(release)

	_, blocker := postJob(t, ts, mcfJob)
	_, queued := postJob(t, ts, `{"type": "grid", "cells": [{"workload": "mcf", "budget": 2000}]}`)
	id := queued["id"].(string)

	del := func(id string) (*http.Response, map[string]any) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&v)
		return resp, v
	}
	resp, v := del(id)
	if resp.StatusCode != http.StatusOK || v["state"] != "cancelled" {
		t.Fatalf("DELETE queued: %d %v", resp.StatusCode, v)
	}
	resp, _ = del(id)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal: %d, want 409", resp.StatusCode)
	}
	resp, _ = del("deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d, want 404", resp.StatusCode)
	}
	_ = s
	_ = blocker
}

func TestHTTPQuotaRetryAfter(t *testing.T) {
	release := make(chan struct{})
	run, _ := blockingRun(release)
	_, ts := newHTTPServer(t, Config{Workers: 1, QuotaRate: 0.001, QuotaBurst: 1}, run)
	defer close(release)

	postJob(t, ts, mcfJob)
	resp, v := postJob(t, ts, `{"type": "grid", "cells": [{"workload": "mcf", "budget": 2000}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota: %d %v, want 429", resp.StatusCode, v)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHTTPSSEStream(t *testing.T) {
	step := make(chan struct{}, 3)
	run := func(ctx context.Context, _ *JobSpec, _ int, progress func(int, int)) ([]byte, error) {
		for i := 1; i <= 2; i++ {
			<-step
			progress(i, 2)
		}
		return []byte("{}\n"), nil
	}
	_, ts := newHTTPServer(t, Config{Workers: 1}, run)

	_, v := postJob(t, ts, mcfJob)
	id := v["id"].(string)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	step <- struct{}{}
	step <- struct{}{}

	var sawProgress, sawState bool
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: progress") {
			sawProgress = true
		}
		if strings.HasPrefix(line, "event: state") {
			sawState = true
		}
	}
	if !sawProgress || !sawState {
		t.Fatalf("SSE stream incomplete: progress=%v state=%v", sawProgress, sawState)
	}

	// A terminal job streams just the final state event and EOF.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"?watch=1", nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "event: state") {
		t.Fatalf("terminal SSE missing state event:\n%s", buf.String())
	}
}

// heldWriter is a ResponseRecorder whose first Flush, the one streamJob
// makes right after it subscribes, blocks until the test releases it.
type heldWriter struct {
	*httptest.ResponseRecorder
	subscribed, release chan struct{}
	flushed             bool
}

func (w *heldWriter) Flush() {
	if !w.flushed {
		w.flushed = true
		close(w.subscribed)
		<-w.release
	}
	w.ResponseRecorder.Flush()
}

// TestSSEStreamDrainsBufferedProgress enters the stream loop with both of
// a job's progress events buffered and Done already closed. The stream
// must emit both before the final state event; a loop that lets select
// take Done first loses them in three rounds of four.
func TestSSEStreamDrainsBufferedProgress(t *testing.T) {
	for round := 0; round < 32; round++ {
		step := make(chan struct{}, 2)
		run := func(ctx context.Context, _ *JobSpec, _ int, progress func(int, int)) ([]byte, error) {
			for i := 1; i <= 2; i++ {
				<-step
				progress(i, 2)
			}
			return []byte("{}\n"), nil
		}
		s := newTestServer(t, Config{Workers: 1}, run)
		st, err := s.Submit(gridSpec("mcf", 1000))
		if err != nil {
			t.Fatal(err)
		}
		w := &heldWriter{ResponseRecorder: httptest.NewRecorder(), subscribed: make(chan struct{}), release: make(chan struct{})}
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.streamJob(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil), st.ID)
		}()
		<-w.subscribed
		step <- struct{}{}
		step <- struct{}{}
		watcher, err := s.Watch(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-watcher.Done
		watcher.Close()
		close(w.release)
		<-served
		shutdownNow(t, s)
		body := w.Body.String()
		if n := strings.Count(body, "event: progress"); n != 2 || !strings.Contains(body, "event: state") {
			t.Fatalf("round %d: stream has %d progress events (want 2) and state=%v:\n%s",
				round, n, strings.Contains(body, "event: state"), body)
		}
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1}, instantRun)
	_, v := postJob(t, ts, mcfJob)
	waitDone(t, s, v["id"].(string))

	resp, m := getJSON(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if m["engine"] != spt.EngineVersion {
		t.Fatalf("metrics engine %v, want %s", m["engine"], spt.EngineVersion)
	}
	values, ok := m["values"].([]any)
	if !ok || len(values) == 0 {
		t.Fatal("metrics dump has no values")
	}
	found := false
	for _, raw := range values {
		val := raw.(map[string]any)
		if val["name"] == "serve.backend_runs" {
			found = true
			if val["scalar"] != float64(1) {
				t.Fatalf("backend_runs = %v, want 1", val["scalar"])
			}
		}
	}
	if !found {
		t.Fatal("serve.backend_runs not in dump")
	}

	resp, h := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1}, instantRun)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs: %d, want 405", resp.StatusCode)
	}
}

func TestHTTPOversizeBody(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1}, instantRun)
	huge := fmt.Sprintf(`{"type": "grid", "cells": [{"workload": %q}]}`, strings.Repeat("x", 2<<20))
	resp, _ := postJob(t, ts, huge)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize body: %d, want 400", resp.StatusCode)
	}
}
