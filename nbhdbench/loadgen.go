package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// query is one pre-encoded request of a workload plus its oracle.
type query struct {
	Method string
	Path   string // path and query string
	Body   []byte
	// Key identifies what the request asks for (its cache identity);
	// Frame is the frame ID a classify request addresses, which joins
	// request spans to the backend batch that served them.
	Key   string
	Frame string
	// Check validates a 200 body against the answer computed during
	// set-up; a non-nil error counts the request as failed.
	Check func(body []byte) error
}

// h2c returns the HTTP/2-without-TLS protocol set the benchmark's own
// server and client speak, so many requests share few connections.
func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// gateway is a handler served in-process over HTTP/2 cleartext.
type gateway struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startGateway(h http.Handler) (*gateway, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	g := &gateway{
		srv:  &http.Server{Handler: h, Protocols: h2c(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(g.done)
		_ = g.srv.Serve(ln)
	}()
	return g, nil
}

// close shuts the server down and waits for its serve loop to return.
func (g *gateway) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.srv.Shutdown(ctx); err != nil {
		_ = g.srv.Close()
	}
	<-g.done
}

// client spreads requests over one HTTP/2 connection per CPU.
type client struct {
	base  string
	conns []*http.Client
	next  atomic.Uint64
}

func newClient(base string) *client {
	c := &client{base: base}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{Protocols: h2c(), MaxConnsPerHost: 1},
		})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// do sends q and returns the status and body.
func (c *client) do(ctx context.Context, q *query) (int, []byte, error) {
	var body io.Reader
	if q.Body != nil {
		body = bytes.NewReader(q.Body)
	}
	req, err := http.NewRequestWithContext(ctx, q.Method, c.base+q.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if q.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// phaseStats counts one phase's requests and keeps its timings.
type phaseStats struct {
	Name   string
	Sent   int
	OK     int
	Failed int       // transport errors, non-200s and wrong answers
	Shed   int       // 503s, also counted in Failed
	Lat    []float64 // ms from due time to response, successful requests
	Late   []float64 // ms the send ran behind its due time (open loop)
	Wall   time.Duration
	Errs   []string // first few failure causes
	// unchecked holds the 200 bodies until the phase ends; checking them
	// then keeps the oracle's decoding off the CPUs the gateway is timed
	// on.
	unchecked []answer
}

type answer struct {
	q    *query
	body []byte
}

// verify checks every 200 the phase received against its oracle,
// moving wrong answers from OK to Failed.
func (p *phaseStats) verify() {
	for _, a := range p.unchecked {
		if err := a.q.Check(a.body); err != nil {
			p.OK--
			p.Failed++
			p.noteErr(fmt.Sprintf("%s %s: wrong answer: %v", a.q.Method, a.q.Path, err))
		}
	}
	p.unchecked = nil
}

func (p *phaseStats) merge(o *phaseStats) {
	p.Sent += o.Sent
	p.OK += o.OK
	p.Failed += o.Failed
	p.Shed += o.Shed
	p.Lat = append(p.Lat, o.Lat...)
	p.Late = append(p.Late, o.Late...)
	p.Wall += o.Wall
	for _, e := range o.Errs {
		p.noteErr(e)
	}
}

func (p *phaseStats) noteErr(e string) {
	if len(p.Errs) < 5 {
		p.Errs = append(p.Errs, e)
	}
}

// generator issues a workload's request sequence against a gateway. The
// sequence is fixed at set-up; cursor walks it across every phase of a
// run, so each phase continues where the last stopped.
type generator struct {
	c      *client
	seq    []*query
	cursor atomic.Uint64
	tr     atomic.Pointer[tracer] // nil while untraced

	mu sync.Mutex // guards the phaseStats being filled
}

func (d *generator) nextQuery() *query {
	i := d.cursor.Add(1) - 1
	return d.seq[i%uint64(len(d.seq))]
}

// send issues one request due at due and records the outcome.
func (d *generator) send(ctx context.Context, q *query, due time.Time, ps *phaseStats) {
	sent := time.Now()
	status, body, err := d.c.do(ctx, q)
	done := time.Now()
	var fail string
	switch {
	case err != nil:
		fail = err.Error()
	case status != http.StatusOK:
		fail = fmt.Sprintf("%s %s: status %d: %.200s", q.Method, q.Path, status, body)
	}
	if tr := d.tr.Load(); tr != nil {
		tr.add(span{Parent: tr.parent(), Name: "http " + q.Method + " " + pathOnly(q.Path), Start: tr.ns(sent), End: tr.ns(done), Key: q.Frame})
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ps.Sent++
	if fail != "" {
		ps.Failed++
		if status == http.StatusServiceUnavailable {
			ps.Shed++
		}
		ps.noteErr(fail)
		return
	}
	ps.OK++
	ps.Lat = append(ps.Lat, ms(done.Sub(due)))
	ps.unchecked = append(ps.unchecked, answer{q, body})
}

func pathOnly(p string) string {
	if i := bytes.IndexByte([]byte(p), '?'); i >= 0 {
		return p[:i]
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop sends total requests from inflight concurrent callers, each
// sending its next request as soon as its last one returns.
func (d *generator) closedLoop(ctx context.Context, name string, total, inflight int) *phaseStats {
	ps := &phaseStats{Name: name}
	var issued atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(total) && ctx.Err() == nil {
				d.send(ctx, d.nextQuery(), time.Now(), ps)
			}
		}()
	}
	wg.Wait()
	ps.Wall = time.Since(start)
	ps.verify()
	return ps
}

// openLoop offers requests at a fixed rate for dur regardless of how
// fast they complete. Each request is timed from its due time, so a
// stall also charges the requests queued behind it. The generator stops
// early, marking the rung capped, if maxInflight requests are
// outstanding; that keeps an overloaded rung from pushing the gateway
// into shedding. It returns the outstanding count sampled every 20ms.
func (d *generator) openLoop(ctx context.Context, name string, rate float64, dur time.Duration, maxInflight int) (ps *phaseStats, samples []int, capped bool) {
	ps = &phaseStats{Name: name}
	var outstanding atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	nextSample := start
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur || ctx.Err() != nil {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		for !now.Before(nextSample) {
			samples = append(samples, int(outstanding.Load()))
			nextSample = nextSample.Add(20 * time.Millisecond)
		}
		if outstanding.Load() >= int64(maxInflight) {
			capped = true
			break
		}
		late := ms(now.Sub(due))
		outstanding.Add(1)
		wg.Add(1)
		q := d.nextQuery()
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			d.send(ctx, q, due, ps)
		}()
		d.mu.Lock()
		ps.Late = append(ps.Late, late)
		d.mu.Unlock()
	}
	wg.Wait()
	ps.Wall = time.Since(start)
	ps.verify()
	return ps, samples, capped
}
