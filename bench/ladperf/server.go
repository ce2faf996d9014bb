package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/deploy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store"
)

// defaultSpec is cmd/ladd's default detector: the paper deployment,
// the diff metric, and ladd's -trials/-percentile/-seed/-keep-in-field
// defaults (trials is a parameter only so tests can shrink it).
func defaultSpec(trials int) serve.DetectorSpec {
	return serve.DetectorSpec{
		Deployment: deploy.PaperConfig(),
		Metric:     "diff",
		Train:      serve.TrainSpec{Trials: trials, Percentile: 99, Seed: 1, KeepInField: true},
	}
}

// ladd is one in-process serve.Server configured with cmd/ladd's
// defaults, listening on a loopback port.
type ladd struct {
	srv    *serve.Server
	hs     *http.Server
	addr   string
	served chan struct{}
}

// startLadd boots a server whose default spec has the given trial
// count. A non-empty storeDir gives it a filesystem snapshot and
// checkpoint store, as `ladd -store-dir` does.
func startLadd(trials int, storeDir string) (*ladd, error) {
	srv, err := newServer(trials, storeDir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The timeouts are cmd/ladd's.
	l := &ladd{
		srv: srv,
		hs: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // always http.ErrServerClosed after close
	}()
	return l, nil
}

// newServer builds a serve.Server the way cmd/ladd does with no flags
// beyond -trials and -store-dir.
func newServer(trials int, storeDir string) (*serve.Server, error) {
	srv, err := serve.NewServer(serve.ServerConfig{
		Default:                defaultSpec(trials),
		MaxBatch:               serve.DefaultMaxBatch,
		MaxConcurrentTrainings: serve.DefaultTrainConcurrency,
	}, nil)
	if err != nil {
		return nil, err
	}
	if storeDir != "" {
		st, err := store.OpenFS(storeDir)
		if err != nil {
			return nil, err
		}
		srv.Pool().SetStore(st)
	}
	return srv, nil
}

// close stops the listener and waits for the serve goroutine to exit.
func (l *ladd) close() {
	_ = l.hs.Close()
	<-l.served
}

// conn is one keep-alive HTTP/1.1 connection that writes pre-encoded
// request messages and parses responses with http.ReadResponse, so the
// client side of a measurement costs a write, a read and a header parse
// — far less CPU than net/http's client, which would otherwise compete
// with the server for the same cores.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func newConn(addr string) *conn { return &conn{addr: addr} }

// do sends one pre-encoded request and returns the status and body. The
// body aliases the connection's buffer and is valid until the next do.
// A transport error drops the connection; the next do redials.
func (c *conn) do(msg []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if _, err := c.c.Write(msg); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

// encodeRequest renders a complete HTTP/1.1 request message.
func encodeRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	b.WriteString(method + " " + path + " HTTP/1.1\r\nHost: ladperf\r\n")
	if body != nil {
		b.WriteString("Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// registerMsg renders POST /v2/detectors for spec.
func registerMsg(spec serve.DetectorSpec) []byte {
	body, err := json.Marshal(serve.RegisterRequest{Spec: spec})
	if err != nil {
		panic(err) // a DetectorSpec always marshals
	}
	return encodeRequest("POST", "/v2/detectors", body)
}

// resource is the part of a v2 detector resource the benchmark reads.
type resource struct {
	State      string   `json:"state"`
	Threshold  *float64 `json:"threshold"`
	TrialsDone int      `json:"trials_done"`
}

// fetchResource sends a register or status request and decodes the
// resource it answers with.
func fetchResource(c *conn, msg []byte) (resource, error) {
	var r resource
	status, body, err := c.do(msg)
	if err != nil {
		return r, err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return r, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decoding resource: %w", err)
	}
	return r, nil
}

// pollEvery is the readiness polling interval. It is fixed, not a
// backoff: client.WaitReady's doubling backoff starts at 50 ms and
// would make a 0.11 s training read as a full second.
const pollEvery = 2 * time.Millisecond

// registration is one detector registration and its timeline, measured
// from when it was due to be sent (an open-loop arrival is late when the
// generator is, and that lateness is the user's wait too).
type registration struct {
	spec       serve.DetectorSpec
	reg, poll  []byte
	due        time.Time
	sent       bool
	next       time.Time     // next status poll
	nonPending bool          // an answer in a state other than pending was seen
	pending    time.Duration // due → first answer not in state pending
	ready      time.Duration // due → first answer in state ready
	threshold  float64
	done       bool
	err        error
}

func newRegistration(spec serve.DetectorSpec, due time.Time) *registration {
	return &registration{
		spec: spec, due: due,
		reg:  registerMsg(spec),
		poll: encodeRequest("GET", "/v2/detectors/"+spec.ID(), nil),
	}
}

// fastPollTrials is how close to its trial budget a training job must be
// before it is polled every pollEvery instead of every slow interval. A
// job further from done needs at least four more scheduler batches of
// tens of milliseconds each, longer together than the slow interval, so
// it is always moved to the fast interval before it can become ready.
const fastPollTrials = 4 * sched.DefaultBatchUnits

// observe records one answer about g received at now and schedules the
// next poll.
func (g *registration) observe(res resource, err error, now time.Time, slow time.Duration) {
	if err != nil {
		g.err, g.done = fmt.Errorf("detector %s: %w", g.spec.ID(), err), true
		return
	}
	if !g.nonPending && res.State != string(serve.StatePending) {
		g.nonPending, g.pending = true, now.Sub(g.due)
	}
	switch res.State {
	case string(serve.StateReady):
		if res.Threshold == nil {
			g.err = fmt.Errorf("detector %s: ready without a threshold", g.spec.ID())
		} else {
			g.ready, g.threshold = now.Sub(g.due), *res.Threshold
		}
		g.done = true
		return
	case string(serve.StateFailed):
		g.err, g.done = fmt.Errorf("detector %s: training failed", g.spec.ID()), true
		return
	}
	interval := slow
	if res.State == string(serve.StatePending) || res.TrialsDone >= g.spec.Train.Trials-fastPollTrials {
		interval = pollEvery
	}
	g.next = now.Add(interval)
}

// awaitReady sends each registration on c once it is due and polls its
// status until it is ready, failed, or the deadline passes. One goroutine
// and one connection serve every registration, so the arrival schedule
// is an open loop whose lateness is the returned lag. Registrations poll
// every pollEvery while pending or near completion and every slow
// interval otherwise. A non-nil pr probes the host's speed between polls.
func awaitReady(c *conn, regs []*registration, deadline time.Time, slow time.Duration, pr *probe) (lag time.Duration) {
	for {
		if pr != nil {
			pr.tick()
		}
		now := time.Now()
		wake, open := deadline, false
		for _, g := range regs {
			if g.done {
				continue
			}
			switch {
			case !g.sent && !now.Before(g.due):
				lag = max(lag, now.Sub(g.due))
				g.sent = true
				res, err := fetchResource(c, g.reg)
				g.observe(res, err, time.Now(), slow)
			case g.sent && !now.Before(g.next):
				res, err := fetchResource(c, g.poll)
				g.observe(res, err, time.Now(), slow)
			}
			if g.done {
				continue
			}
			open = true
			next := g.due
			if g.sent {
				next = g.next
			}
			if next.Before(wake) {
				wake = next
			}
		}
		if !open {
			return lag
		}
		if time.Now().After(deadline) {
			for _, g := range regs {
				if !g.done {
					g.err, g.done = fmt.Errorf("detector %s: not ready by the deadline", g.spec.ID()), true
				}
			}
			return lag
		}
		time.Sleep(time.Until(wake))
	}
}
