package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"dbdht/internal/api"
)

// MaxBodyBytes caps how much of any response body the client will read.
// It must fit a legal batch response: the server bounds a *request* at
// 8 MiB, but a batch GET of keys whose values were written individually
// can return many 8 MiB values, base64-inflated 4/3× in JSON.  64 MiB
// bounds memory while accommodating realistic batches.
const MaxBodyBytes = 64 << 20

// DefaultRequestTimeout bounds a request whose context has no deadline.
const DefaultRequestTimeout = 30 * time.Second

// Client talks to one dhtd endpoint.  Safe for concurrent use.
type Client struct {
	base        string
	hc          *http.Client
	reqTimeout  time.Duration
	retryBudget time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (transports,
// proxies, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRequestTimeout sets the per-request deadline applied when the
// caller's context has none.  Zero disables the default (the caller's
// context alone governs the request).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Client) { c.reqTimeout = d }
}

// WithWriteRetry enables automatic retry of transiently failed writes —
// keys landing on a partition that is frozen mid-migration, being
// promoted after its primary crashed, or momentarily unrouted — with
// jittered exponential backoff.  budget bounds the total time spent
// retrying one operation (on top of the first attempt); zero, the
// default, disables retry.  Only the failed keys of a batch are retried;
// puts and deletes are idempotent, so re-issuing a failed key is safe.
func WithWriteRetry(budget time.Duration) Option {
	return func(c *Client) { c.retryBudget = budget }
}

// New returns a Client for a base URL such as "http://127.0.0.1:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		reqTimeout: DefaultRequestTimeout,
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// errorFrom decodes the error body of a non-2xx response.
func errorFrom(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var ae api.Error
	if json.Unmarshal(body, &ae) == nil && ae.Message != "" {
		return fmt.Errorf("dhtd: %s (HTTP %d)", ae.Message, resp.StatusCode)
	}
	return fmt.Errorf("dhtd: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// reqContext applies the default per-request timeout when ctx carries no
// deadline of its own.
func (c *Client) reqContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok || c.reqTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.reqTimeout)
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, contentType string) (*http.Response, context.CancelFunc, error) {
	rctx, cancel := c.reqContext(ctx)
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// readBody drains at most MaxBodyBytes of a response body, erroring if
// the server sends more.  A body of declared length is read into one
// buffer of exactly that size; one that ends short of it is an error.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 {
		if n > MaxBodyBytes {
			return nil, fmt.Errorf("dhtd: response body of %d bytes exceeds %d", n, MaxBodyBytes)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, fmt.Errorf("dhtd: reading %d-byte response body: %w", n, err)
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > MaxBodyBytes {
		return nil, fmt.Errorf("dhtd: response body exceeds %d bytes", MaxBodyBytes)
	}
	return body, nil
}

// doJSON performs a request with optional JSON body, decoding a JSON
// response into out (if non-nil) and mapping non-2xx statuses to errors.
// A batch request is encoded by api.AppendBatchRequest and a batch
// response decoded by api.DecodeBatchResponse, any other by encoding/json.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	ct := ""
	if in != nil {
		var buf []byte
		var err error
		if br, ok := in.(*batchRequest); ok {
			buf = api.AppendBatchRequest(make([]byte, 0, batchRequestSize(br)), br)
		} else if buf, err = json.Marshal(in); err != nil {
			return err
		}
		body = bytes.NewReader(buf)
		ct = "application/json"
	}
	resp, cancel, err := c.do(ctx, method, path, body, ct)
	if err != nil {
		return err
	}
	defer cancel()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return errorFrom(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, MaxBodyBytes))
		return nil
	}
	raw, err := readBody(resp)
	if err != nil {
		return err
	}
	if out, ok := out.(*batchResponse); ok {
		return api.DecodeBatchResponse(raw, out)
	}
	return json.Unmarshal(raw, out)
}

func kvPath(key string) string { return "/v1/kv/" + url.PathEscape(key) }

// Put stores a key/value pair.  With WithWriteRetry set, transient
// failures (partition frozen or promoting) are retried within the
// budget.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	return c.retrying(ctx, func() error { return c.putOnce(ctx, key, value) })
}

func (c *Client) putOnce(ctx context.Context, key string, value []byte) error {
	resp, cancel, err := c.do(ctx, http.MethodPut, kvPath(key), bytes.NewReader(value), "application/octet-stream")
	if err != nil {
		return err
	}
	defer cancel()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	resp.Body.Close()
	return nil
}

// Get fetches a key; found is false for absent keys.
func (c *Client) Get(ctx context.Context, key string) (value []byte, found bool, err error) {
	resp, cancel, err := c.do(ctx, http.MethodGet, kvPath(key), nil, "")
	if err != nil {
		return nil, false, err
	}
	defer cancel()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, MaxBodyBytes))
		resp.Body.Close()
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, errorFrom(resp)
	}
	defer resp.Body.Close()
	value, err = readBody(resp)
	if err != nil {
		return nil, false, err
	}
	return value, true, nil
}

// Delete removes a key; found reports whether it existed.  With
// WithWriteRetry set, transient failures are retried within the budget.
func (c *Client) Delete(ctx context.Context, key string) (found bool, err error) {
	err = c.retrying(ctx, func() error {
		var out api.DeleteResponse
		if err := c.doJSON(ctx, http.MethodDelete, kvPath(key), nil, &out); err != nil {
			return err
		}
		found = out.Found
		return nil
	})
	return found, err
}

// Item is one key/value pair of a batch put.
type Item = api.Item

// Result is one key's outcome in a batch response; OK reports success.
type Result = api.Result

type batchRequest = api.BatchRequest
type batchResponse = api.BatchResponse

func (c *Client) batch(ctx context.Context, op string, items []Item) ([]Result, error) {
	var out batchResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/kv:batch", &batchRequest{Op: op, Items: items}, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// batchRequestSize bounds the encoded size of a batch request whose
// strings need no escape, so the body is written into one allocation.
func batchRequestSize(r *batchRequest) int {
	n := len(`{"op":"","items":[]}`) + len(r.Op)
	for _, it := range r.Items {
		n += len(`{"key":"","value":""},`) + len(it.Key) + base64.StdEncoding.EncodedLen(len(it.Value))
	}
	return n
}

// --- write retry ---

const (
	writeRetryBase = 25 * time.Millisecond
	writeRetryCap  = 2 * time.Second
)

// transientWriteError reports whether a write failure is worth retrying:
// the key's partition was frozen for a migration handover, is being
// promoted after a primary crash, its primary stopped under the write (a
// kill or leave closed the WAL mid-wait), or the route to it lapsed — all
// states that resolve on their own within the failover window.  Permanent
// errors (bad request, oversized value) are not retried.
func transientWriteError(msg string) bool {
	for _, s := range [...]string{
		"frozen",
		"no route",
		"no snode",
		"replication aborted",
		"sub-request",
		"timed out",
		"timeout",
		"left the cluster",
		"stopping",
		"connection refused",
		"EOF",
	} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// retryBackoff returns the jittered delay before retry attempt n: base
// 25 ms doubling each attempt, capped at 2 s, drawn uniformly from
// [d/2, d] so a herd of clients retrying into the same promoting
// partition does not stay synchronized.
func retryBackoff(attempt int) time.Duration {
	d := writeRetryBase
	for i := 0; i < attempt && d < writeRetryCap; i++ {
		d *= 2
	}
	if d > writeRetryCap {
		d = writeRetryCap
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// retrying runs op, re-issuing it on transient write failures with
// jittered exponential backoff until it succeeds, the failure turns
// permanent, or the write-retry budget (or caller's context) expires.
func (c *Client) retrying(ctx context.Context, op func() error) error {
	err := op()
	if c.retryBudget <= 0 {
		return err
	}
	deadline := time.Now().Add(c.retryBudget)
	for attempt := 0; err != nil && transientWriteError(err.Error()); attempt++ {
		d := retryBackoff(attempt)
		if time.Now().Add(d).After(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(d):
		}
		err = op()
	}
	return err
}

// writeBatch issues one batch write and, when a retry budget is set,
// re-issues just the transiently failed keys with jittered backoff until
// all succeed or the budget runs out.  Results stay parallel to items.
func (c *Client) writeBatch(ctx context.Context, op string, items []Item) ([]Result, error) {
	results, err := c.batch(ctx, op, items)
	if c.retryBudget <= 0 {
		return results, err
	}
	deadline := time.Now().Add(c.retryBudget)
	for attempt := 0; ; attempt++ {
		var pending []int
		if err != nil {
			if !transientWriteError(err.Error()) {
				return results, err
			}
			pending = make([]int, len(items))
			for i := range pending {
				pending[i] = i
			}
		} else {
			for i, r := range results {
				if !r.OK() && transientWriteError(r.Error) {
					pending = append(pending, i)
				}
			}
		}
		if len(pending) == 0 {
			return results, err
		}
		d := retryBackoff(attempt)
		if time.Now().Add(d).After(deadline) {
			return results, err
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			return results, err
		case <-time.After(d):
		}
		sub := make([]Item, len(pending))
		for j, i := range pending {
			sub[j] = items[i]
		}
		rres, rerr := c.batch(ctx, op, sub)
		if rerr != nil {
			err = rerr
			continue
		}
		if results == nil {
			results = make([]Result, len(items))
			for i, it := range items {
				results[i] = Result{Key: it.Key, Error: "not attempted"}
			}
		}
		for j, i := range pending {
			if j < len(rres) {
				results[i] = rres[j]
			}
		}
		err = nil
	}
}

// MPut stores many pairs in one request; results are parallel to items
// and partial failures are reported per key.  With WithWriteRetry set,
// transiently failed keys are retried within the budget.
func (c *Client) MPut(ctx context.Context, items []Item) ([]Result, error) {
	return c.writeBatch(ctx, "put", items)
}

// MGet fetches many keys in one request.
func (c *Client) MGet(ctx context.Context, keys []string) ([]Result, error) {
	return c.batch(ctx, "get", keyItems(keys))
}

// MDelete removes many keys in one request.  With WithWriteRetry set,
// transiently failed keys are retried within the budget.
func (c *Client) MDelete(ctx context.Context, keys []string) ([]Result, error) {
	return c.writeBatch(ctx, "delete", keyItems(keys))
}

func keyItems(keys []string) []Item {
	items := make([]Item, len(keys))
	for i, k := range keys {
		items[i] = Item{Key: k}
	}
	return items
}

// --- admin plane ---

// AddSnode joins one fresh snode and returns its id.
func (c *Client) AddSnode(ctx context.Context) (int, error) {
	var out api.AddSnodeResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/snodes", nil, &out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// RemoveSnode gracefully withdraws an snode.
func (c *Client) RemoveSnode(ctx context.Context, id int) error {
	return c.doJSON(ctx, http.MethodDelete, fmt.Sprintf("/v1/snodes/%d", id), nil, nil)
}

// CreatedVnode names a vnode CreateVnode enrolled: the vnode, its group
// and the snode that hosts it.
type CreatedVnode = api.CreateVnodeResponse

// CreateVnode enrolls one vnode at the given snode (0 lets the server
// pick the least-loaded snode).
func (c *Client) CreateVnode(ctx context.Context, snode int) (CreatedVnode, error) {
	var out CreatedVnode
	err := c.doJSON(ctx, http.MethodPost, "/v1/vnodes", api.CreateVnodeRequest{Snode: snode}, &out)
	return out, err
}

// SetEnrollment adjusts an snode's hosted vnode count and returns the
// count after adjustment.
func (c *Client) SetEnrollment(ctx context.Context, id, target int) (int, error) {
	var out api.EnrollmentResponse
	in := api.EnrollmentRequest{Target: target}
	if err := c.doJSON(ctx, http.MethodPut, fmt.Sprintf("/v1/snodes/%d/enrollment", id), in, &out); err != nil {
		return 0, err
	}
	return out.Hosted, nil
}

// --- introspection ---

// Status is the GET /v1/status document, durability block included.
type Status = api.Status

// SnodeStatus summarizes one live snode.
type SnodeStatus = api.SnodeStatus

// VnodeStatus is one vnode's materialized state.
type VnodeStatus = api.VnodeStatus

// Stats is the cluster's aggregated runtime counters.
type Stats = api.Stats

// Status fetches the cluster status snapshot.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var out Status
	err := c.doJSON(ctx, http.MethodGet, "/v1/status", nil, &out)
	return out, err
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, cancel, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, "")
	if err != nil {
		return "", err
	}
	defer cancel()
	if resp.StatusCode != http.StatusOK {
		return "", errorFrom(resp)
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	return string(body), err
}
