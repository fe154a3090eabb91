package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbdht/internal/api"
)

// TestRequestTimeout verifies every request gets a deadline even when the
// caller's context has none: a stalled server fails the call quickly
// instead of hanging.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release) // unblock the handler before ts.Close waits on it
	cl := New(ts.URL, WithRequestTimeout(50*time.Millisecond))
	start := time.Now()
	_, _, err := cl.Get(context.Background(), "slow")
	if err == nil {
		t.Fatal("Get against a stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Get took %v, want ≈50ms request timeout", elapsed)
	}
}

// TestContextCancellation verifies the caller's context aborts a request
// mid-flight.
func TestContextCancellation(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release) // unblock the handler before ts.Close waits on it
	cl := New(ts.URL)    // default 30s timeout must not be what fires
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := cl.Put(ctx, "k", []byte("v")); err == nil {
		t.Fatal("Put with cancelled context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Put took %v", elapsed)
	}
}

// TestBodyCap verifies the client refuses to slurp an oversized response
// body into memory.
func TestBodyCap(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		chunk := strings.Repeat("x", 1<<20)
		for i := 0; i <= MaxBodyBytes>>20; i++ {
			if _, err := w.Write([]byte(chunk)); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	cl := New(ts.URL)
	_, _, err := cl.Get(context.Background(), "huge")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized Get error = %v, want a body-cap error", err)
	}
}

// rawReply serves every request with reply, written as is to the
// connection, which it then closes.
func rawReply(t *testing.T, reply string) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf.WriteString(reply)
		buf.Flush()
	}))
	t.Cleanup(ts.Close)
	return ts
}

const replyHead = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: close\r\n"

// TestBatchReplyChunked: a batch reply without a Content-Length, chunked
// as dhtd sent every batch reply before it declared the length, decodes.
func TestBatchReplyChunked(t *testing.T) {
	body := `{"results":[{"key":"a","found":true,"value":"dg=="},{"key":"b","found":false}]}` + "\n"
	ts := rawReply(t, replyHead+"Transfer-Encoding: chunked\r\n\r\n"+
		fmt.Sprintf("%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", 20, body[:20], len(body)-20, body[20:]))
	res, err := New(ts.URL).MGet(context.Background(), []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || !res[0].Found || string(res[0].Value) != "v" || res[1].Found {
		t.Fatalf("chunked reply decoded to %+v", res)
	}
}

// TestBatchReplyOverCap: a declared length over MaxBodyBytes is refused
// before a buffer of that size is allocated.
func TestBatchReplyOverCap(t *testing.T) {
	ts := rawReply(t, replyHead+fmt.Sprintf("Content-Length: %d\r\n\r\n", MaxBodyBytes+1)+`{"results":[]}`)
	cl := New(ts.URL)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cl.MGet(context.Background(), []string{"a"})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized Content-Length: error %v, want a body-cap error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxBodyBytes/2 {
		t.Fatalf("refusing the body allocated %d bytes", grew)
	}
}

// TestBatchReplyShort: a body that ends before its declared length is an
// error, not a truncated result.
func TestBatchReplyShort(t *testing.T) {
	body := `{"results":[{"key":"a","found":false}]}`
	ts := rawReply(t, replyHead+fmt.Sprintf("Content-Length: %d\r\n\r\n", len(body)+10)+body)
	if res, err := New(ts.URL).MGet(context.Background(), []string{"a"}); err == nil {
		t.Fatalf("short body decoded to %+v, want an error", res)
	}
}

// TestBatchRequestBytes: the client sends json.Marshal's bytes.
func TestBatchRequestBytes(t *testing.T) {
	items := []Item{{Key: "plain", Value: []byte("v")}, {Key: "<html&> "}, {Key: "bad\xff", Value: []byte{}}}
	want, err := json.Marshal(batchRequest{Op: "put", Items: items})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		json.NewEncoder(w).Encode(batchResponse{Results: make([]Result, len(items))})
	}))
	defer ts.Close()
	if _, err := New(ts.URL).MPut(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("request body\n%s\nwant\n%s", got, want)
	}
}

// TestWriteRetryBatch verifies that with a retry budget only the
// transiently failed keys of a batch are re-issued, and the merged
// results come back in input order.
func TestWriteRetryBatch(t *testing.T) {
	var attempts int
	var secondBody batchRequest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode batch request: %v", err)
		}
		attempts++
		var resp batchResponse
		for _, it := range req.Items {
			res := Result{Key: it.Key}
			// First attempt: keys on the "promoting" partition fail, one
			// frozen mid-handover, one forwarded to an snode that then
			// left, one whose primary was killed under the durable wait.
			if attempts == 1 {
				res.Error = map[string]string{
					"hot-0": "partition frozen for handover",
					"hot-1": "cluster: snode 3: rpc to 2 failed: peer left the cluster",
					"hot-2": "wal aborted: snode stopping",
				}[it.Key]
			}
			resp.Results = append(resp.Results, res)
		}
		if attempts == 2 {
			secondBody = req
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()
	cl := New(ts.URL, WithWriteRetry(2*time.Second))
	items := []Item{
		{Key: "cold-0", Value: []byte("a")},
		{Key: "hot-0", Value: []byte("b")},
		{Key: "cold-1", Value: []byte("c")},
		{Key: "hot-1", Value: []byte("d")},
		{Key: "hot-2", Value: []byte("e")},
	}
	res, err := cl.MPut(context.Background(), items)
	if err != nil {
		t.Fatalf("MPut: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("server saw %d attempts, want 2", attempts)
	}
	if len(secondBody.Items) != 3 || secondBody.Items[0].Key != "hot-0" || secondBody.Items[1].Key != "hot-1" || secondBody.Items[2].Key != "hot-2" {
		t.Fatalf("retry re-sent %+v, want only the three hot keys", secondBody.Items)
	}
	if len(res) != len(items) {
		t.Fatalf("got %d results, want %d", len(res), len(items))
	}
	for i, r := range res {
		if !r.OK() || r.Key != items[i].Key {
			t.Fatalf("result[%d] = %+v, want OK for %q", i, r, items[i].Key)
		}
	}
}

// TestWriteRetryPermanentError verifies non-transient per-key failures
// are returned immediately, not retried.
func TestWriteRetryPermanentError(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		json.NewEncoder(w).Encode(batchResponse{Results: []Result{
			{Key: "k", Error: "value exceeds maximum size"},
		}})
	}))
	defer ts.Close()
	cl := New(ts.URL, WithWriteRetry(2*time.Second))
	res, err := cl.MPut(context.Background(), []Item{{Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatalf("MPut: %v", err)
	}
	if attempts != 1 {
		t.Fatalf("server saw %d attempts, want 1 (permanent error must not retry)", attempts)
	}
	if res[0].OK() {
		t.Fatal("permanent error reported as success")
	}
}

// TestWriteRetryBudget verifies a persistently failing transient write
// gives up once the budget is spent instead of retrying forever.
func TestWriteRetryBudget(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		json.NewEncoder(w).Encode(batchResponse{Results: []Result{
			{Key: "k", Error: "no route to partition"},
		}})
	}))
	defer ts.Close()
	cl := New(ts.URL, WithWriteRetry(150*time.Millisecond))
	start := time.Now()
	res, err := cl.MPut(context.Background(), []Item{{Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatalf("MPut: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v, want bounded by the 150ms budget", elapsed)
	}
	if attempts < 2 {
		t.Fatalf("server saw %d attempts, want at least one retry", attempts)
	}
	if res[0].OK() {
		t.Fatal("exhausted retry reported success")
	}
}

// TestPutRetry verifies the single-key write path retries a frozen
// partition until it thaws.
func TestPutRetry(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.Error{Message: "partition frozen for handover"})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	cl := New(ts.URL, WithWriteRetry(5*time.Second))
	if err := cl.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("server saw %d attempts, want 3", attempts)
	}
}
