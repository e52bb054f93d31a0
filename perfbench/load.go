package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client talks to one daemon over at most conns keep-alive connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// sample is one request as the load generator saw it. Times are offsets
// from the phase start. In the closed loop a request is due when its
// caller sends it; in the open loop it is due on the arrival schedule, and
// Start-Due is how late the generator ran.
type sample struct {
	K       int // stream index
	Sender  int
	Observe bool
	Due     time.Duration
	Start   time.Duration
	End     time.Duration
	Status  int
	Err     error
	Body    []byte
}

// phase is one measured load phase against one daemon.
type phase struct {
	Open    bool
	Warmup  time.Duration // requests due before this are not measured
	Window  time.Duration // measured window length after the warmup
	Samples []sample
	// Exhausted is set when a Pool 0 stream ran out of new queries.
	Exhausted bool
}

// measured reports whether s counts toward the phase's figures: in the
// closed loop, completed inside the window; in the open loop, due inside it.
func (p *phase) measured(s sample) bool {
	if p.Open {
		return s.Due >= p.Warmup
	}
	return s.End >= p.Warmup && s.End <= p.Warmup+p.Window
}

// cursor hands out stream indexes; a run's phases consume one stream in
// order, so a Pool 0 workload never repeats a query within a run.
type cursor struct {
	next  atomic.Int64
	limit int
}

// claim reserves n consecutive indexes and returns the first.
func (c *cursor) claim(n int) (int, bool) {
	end := c.next.Add(int64(n))
	if end > int64(c.limit) {
		return 0, false
	}
	return int(end) - n, true
}

// claimed is the number of indexes handed out so far.
func (c *cursor) claimed() int { return min(int(c.next.Load()), c.limit) }

// marks runs fn(0) at the start of the measured window and fn(1) at its end,
// on its own goroutine; the returned wait blocks until both have run.
func marks(epoch time.Time, warmup, window time.Duration, fn func(edge int)) (wait func()) {
	if fn == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for edge, at := range []time.Duration{warmup, warmup + window} {
			time.Sleep(time.Until(epoch.Add(at)))
			fn(edge)
		}
	}()
	return func() { <-done }
}

// runClosed drives callers concurrent callers, each sending its next
// request only after the previous reply, until warmup+window has passed.
func runClosed(c *client, s *stream, cur *cursor, callers int, warmup, window time.Duration, mark func(int)) *phase {
	p := &phase{Warmup: warmup, Window: window}
	epoch := time.Now()
	wait := marks(epoch, warmup, window, mark)
	per := make([][]sample, callers)
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(epoch) < warmup+window {
				k, ok := cur.claim(1)
				if !ok {
					exhausted.Store(true)
					return
				}
				r := s.request(k)
				body := s.body(r)
				start := time.Since(epoch)
				status, resp, err := c.do(http.MethodPost, r.path(), body)
				per[w] = append(per[w], sample{K: k, Sender: w, Observe: r.Observe, Due: start, Start: start,
					End: time.Since(epoch), Status: status, Err: err, Body: resp})
			}
		}(w)
	}
	wg.Wait()
	wait()
	p.Exhausted = exhausted.Load()
	p.Samples = merge(per)
	return p
}

// runOpen sends requests on a fixed-rate arrival schedule over warmup+window
// through senders connections. A request is timed from when it was due, so
// a stall that delays later sends counts against them.
func runOpen(c *client, s *stream, cur *cursor, senders int, rate float64, warmup, window time.Duration, mark func(int)) *phase {
	p := &phase{Open: true, Warmup: warmup, Window: window}
	total := int(math.Ceil((warmup + window).Seconds() * rate))
	base, ok := cur.claim(total)
	if !ok {
		p.Exhausted = true
		return p
	}
	// Build every request up front, so the senders only wait and send.
	reqs := make([]request, total)
	bodies := make([][]byte, total)
	for j := range reqs {
		reqs[j] = s.request(base + j)
		bodies[j] = s.body(reqs[j])
	}
	epoch := time.Now()
	wait := marks(epoch, warmup, window, mark)
	per := make([][]sample, senders)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= total {
					return
				}
				due := time.Duration(float64(j) / rate * float64(time.Second))
				time.Sleep(time.Until(epoch.Add(due)))
				start := time.Since(epoch)
				status, resp, err := c.do(http.MethodPost, reqs[j].path(), bodies[j])
				per[w] = append(per[w], sample{K: base + j, Sender: w, Observe: reqs[j].Observe, Due: due, Start: start,
					End: time.Since(epoch), Status: status, Err: err, Body: resp})
			}
		}(w)
	}
	wg.Wait()
	wait()
	p.Samples = merge(per)
	return p
}

// merge flattens per-sender samples into stream order.
func merge(per [][]sample) []sample {
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// throughput is the closed-loop completion rate inside the window, taken
// between its first and last completion so the figure is not quantized to
// whole requests per window.
func (p *phase) throughput() float64 {
	n := 0
	var first, last time.Duration
	for _, s := range p.Samples {
		if !p.measured(s) {
			continue
		}
		if n == 0 || s.End < first {
			first = s.End
		}
		last = max(last, s.End)
		n++
	}
	if n < 2 || last == first {
		return 0
	}
	return float64(n-1) / (last - first).Seconds()
}

// completed is the number of closed-loop completions inside the window.
func (p *phase) completed() int {
	n := 0
	for _, s := range p.Samples {
		if p.measured(s) {
			n++
		}
	}
	return n
}

// latenciesMS returns the measured predict requests' latencies from their
// due time.
func (p *phase) latenciesMS() []float64 {
	var out []float64
	for _, s := range p.Samples {
		if p.measured(s) && !s.Observe {
			out = append(out, float64(s.End-s.Due)/float64(time.Millisecond))
		}
	}
	return out
}

// latenessMS returns how late each measured request was sent.
func (p *phase) latenessMS() []float64 {
	var out []float64
	for _, s := range p.Samples {
		if p.measured(s) {
			out = append(out, float64(s.Start-s.Due)/float64(time.Millisecond))
		}
	}
	return out
}

func (p *phase) String() string {
	kind := "closed"
	if p.Open {
		kind = "open"
	}
	return fmt.Sprintf("%s loop, %d requests, window %s after %s warmup", kind, len(p.Samples), p.Window, p.Warmup)
}
