// Package client is the typed Go client of the ladd v2 serving API —
// the resource-oriented face of the LAD detection daemon (cmd/ladd).
//
// Detectors are named server-side resources with an asynchronous
// training lifecycle (pending → training → ready | failed). The client
// wraps every endpoint, understands the server's structured error model
// (202 + Retry-After while a resource trains), and paces its polling off
// the server's own retry hints:
//
//	c := client.New("http://localhost:8080")
//	det, err := c.RegisterAndWait(ctx, client.PaperSpec().WithTrials(2000))
//	v, err := c.Check(ctx, det.ID, observation, client.Point{X: 310, Y: 560})
//	if v.Alarm {
//	    fix, err := c.Correct(ctx, det.ID, observation)
//	    ...
//	}
//
// Check and CheckBatch transparently retry 202 responses until the
// context expires, so callers may fire checks right after Register and
// let the client absorb the cold start.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to one ladd daemon. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	token   string
	minWait time.Duration
	maxWait time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport tuning, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithToken attaches a bearer token to every request; the server
// requires it on mutating v2 endpoints when started with
// -api-token-file.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// WithBackoff bounds the retry pacing for 202 responses and readiness
// polling: waits start at min (or the server's Retry-After hint, when
// given) and double up to max.
func WithBackoff(min, max time.Duration) Option {
	return func(c *Client) { c.minWait, c.maxWait = min, max }
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Timeout: 60 * time.Second},
		minWait: 50 * time.Millisecond,
		maxWait: 5 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request and decodes the JSON response into out (unless
// nil). Non-2xx responses decode the structured error envelope into an
// *APIError; 202 is returned as an *APIError with CodeDetectorTraining
// so retry loops can branch on it.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	// 202 carries the error envelope too (detector_training).
	if resp.StatusCode >= 300 || resp.StatusCode == http.StatusAccepted {
		var env struct {
			Error *APIError `json:"error"`
		}
		if jsonErr := json.Unmarshal(raw, &env); jsonErr == nil && env.Error != nil {
			env.Error.HTTPStatus = resp.StatusCode
			return env.Error
		}
		return &APIError{
			Code:       CodeInternal,
			Message:    fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw))),
			HTTPStatus: resp.StatusCode,
		}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// retryTraining reports whether err means "resource still training" and,
// if so, how long the server suggested waiting.
func retryTraining(err error) (time.Duration, bool) {
	var api *APIError
	if errors.As(err, &api) && api.Code == CodeDetectorTraining {
		return time.Duration(api.RetryAfterMS) * time.Millisecond, true
	}
	return 0, false
}

// wait sleeps for d (bounded by the client's backoff window) or until
// the context expires.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if d < c.minWait {
		d = c.minWait
	}
	if d > c.maxWait {
		d = c.maxWait
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Register admits spec as a detector resource. It returns immediately
// with the resource's current status — StateTraining (or StatePending
// under load) on first sight; an existing resource comes back in
// whatever state it is in. Registration is idempotent: the same spec
// always names the same id.
func (c *Client) Register(ctx context.Context, spec DetectorSpec) (Detector, error) {
	var d Detector
	err := c.do(ctx, http.MethodPost, "/v2/detectors", struct {
		Spec DetectorSpec `json:"spec"`
	}{spec}, &d)
	return d, err
}

// Get fetches a resource's status.
func (c *Client) Get(ctx context.Context, id string) (Detector, error) {
	var d Detector
	err := c.do(ctx, http.MethodGet, "/v2/detectors/"+id, nil, &d)
	return d, err
}

// List fetches every resident resource.
func (c *Client) List(ctx context.Context) ([]Detector, error) {
	var resp struct {
		Detectors []Detector `json:"detectors"`
	}
	err := c.do(ctx, http.MethodGet, "/v2/detectors", nil, &resp)
	return resp.Detectors, err
}

// Delete evicts a resource (mid-training resources detach and their
// result is discarded).
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v2/detectors/"+id, nil, nil)
}

// WaitReady polls a resource until it is ready, pacing itself off the
// server's retry hints with exponential backoff in between, and returns
// the ready status. A resource that lands in StateFailed surfaces as an
// *APIError with CodeDetectorFailed; bound the wait with the context.
func (c *Client) WaitReady(ctx context.Context, id string) (Detector, error) {
	backoff := c.minWait
	for {
		d, err := c.Get(ctx, id)
		if err != nil {
			return Detector{}, err
		}
		switch d.State {
		case StateReady:
			return d, nil
		case StateFailed:
			return d, &APIError{Code: CodeDetectorFailed, Message: d.Error, HTTPStatus: http.StatusConflict}
		}
		hint := time.Duration(d.RetryAfterMS) * time.Millisecond
		if hint <= 0 {
			hint = backoff
		}
		if err := c.wait(ctx, hint); err != nil {
			return d, err
		}
		if backoff *= 2; backoff > c.maxWait {
			backoff = c.maxWait
		}
	}
}

// RegisterAndWait registers spec and blocks until the resource is ready
// (or the context expires).
func (c *Client) RegisterAndWait(ctx context.Context, spec DetectorSpec) (Detector, error) {
	d, err := c.Register(ctx, spec)
	if err != nil {
		return d, err
	}
	if d.Ready() {
		return d, nil
	}
	return c.WaitReady(ctx, d.ID)
}

// Check scores one observation/claimed-location pair against a
// detector. While the resource is still training, the client absorbs
// the 202 responses — sleeping per the server's Retry-After hint — and
// retries until the context expires.
func (c *Client) Check(ctx context.Context, id string, observation []int, location Point) (Verdict, error) {
	var v Verdict
	err := c.retry202(ctx, func() error {
		return c.do(ctx, http.MethodPost, "/v2/detectors/"+id+"/check",
			Item{Observation: observation, Location: location}, &v)
	})
	return v, err
}

// CheckBatch scores many pairs in one request (same 202 handling as
// Check). The server bounds items per request (4096 by default); see
// CheckBatchChunked for arbitrarily large workloads. An answer that
// does not hold one verdict per item is an error, since verdicts are
// matched to items by position.
func (c *Client) CheckBatch(ctx context.Context, id string, items []Item) ([]Verdict, error) {
	var resp struct {
		Results []Verdict `json:"results"`
	}
	err := c.retry202(ctx, func() error {
		return c.do(ctx, http.MethodPost, "/v2/detectors/"+id+"/check/batch", struct {
			Items []Item `json:"items"`
		}{items}, &resp)
	})
	if err == nil && len(resp.Results) != len(items) {
		return nil, fmt.Errorf("client: batch of %d items answered with %d verdicts", len(items), len(resp.Results))
	}
	return resp.Results, err
}

// CheckBatchChunked is the batch helper for workloads larger than the
// server's per-request cap: it splits items into chunks of at most
// chunkSize, issues them sequentially, and returns the concatenated
// verdicts in input order. chunkSize <= 0 uses the server default cap.
func (c *Client) CheckBatchChunked(ctx context.Context, id string, items []Item, chunkSize int) ([]Verdict, error) {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	out := make([]Verdict, 0, len(items))
	for lo := 0; lo < len(items); lo += chunkSize {
		hi := min(lo+chunkSize, len(items))
		vs, err := c.CheckBatch(ctx, id, items[lo:hi])
		if err != nil {
			return out, fmt.Errorf("chunk [%d:%d): %w", lo, hi, err)
		}
		out = append(out, vs...)
	}
	return out, nil
}

// retry202 runs call, retrying while the server answers "still
// training" with the hinted (or backed-off) pause between attempts.
func (c *Client) retry202(ctx context.Context, call func() error) error {
	backoff := c.minWait
	for {
		err := call()
		hint, retry := retryTraining(err)
		if !retry {
			return err
		}
		if hint <= 0 {
			hint = backoff
		}
		if werr := c.wait(ctx, hint); werr != nil {
			return fmt.Errorf("%w (last server state: %v)", werr, err)
		}
		if backoff *= 2; backoff > c.maxWait {
			backoff = c.maxWait
		}
	}
}

// Correct asks the detector to re-estimate the sensor's location from
// the observation itself — the move after an alarm, when the reported
// localization is suspect. Retries 202 like Check.
func (c *Client) Correct(ctx context.Context, id string, observation []int) (Correction, error) {
	req := struct {
		Observation []int `json:"observation"`
	}{observation}
	var out Correction
	err := c.retry202(ctx, func() error {
		return c.do(ctx, http.MethodPost, "/v2/detectors/"+id+"/correct", req, &out)
	})
	return out, err
}

// Rethreshold re-cuts the detector's operating point to the
// tau-percentile of its retained benign scores — no retraining — and
// returns the updated status.
func (c *Client) Rethreshold(ctx context.Context, id string, tau float64) (Detector, error) {
	var d Detector
	err := c.do(ctx, http.MethodPost, "/v2/detectors/"+id+"/rethreshold", struct {
		Percentile float64 `json:"percentile"`
	}{tau}, &d)
	return d, err
}

// Healthy reports whether the daemon answers /healthz with 200 (false
// while it warms up its default detector).
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// WaitHealthy polls /healthz until the daemon is ready or the context
// expires.
func (c *Client) WaitHealthy(ctx context.Context) error {
	backoff := c.minWait
	for {
		if c.Healthy(ctx) {
			return nil
		}
		if err := c.wait(ctx, backoff); err != nil {
			return fmt.Errorf("daemon at %s not healthy: %w", c.base, err)
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// MetricsText scrapes the daemon's Prometheus text exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: /metrics status %d", resp.StatusCode)
	}
	return string(raw), nil
}

// MetricValue extracts one sample from Prometheus text exposition: the
// first line whose name (and label set, when labels is non-empty, e.g.
// `state="ready"`) matches. ok is false when no line matches.
func MetricValue(text, name string, labels string) (value float64, ok bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if labels != "" {
			if !strings.HasPrefix(rest, "{") || !strings.Contains(rest, labels) {
				continue
			}
		} else if !strings.HasPrefix(rest, " ") {
			// Exact-name match only: "ladd_train_seconds" must not read
			// the "ladd_train_seconds_sum" or labeled series lines.
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}
