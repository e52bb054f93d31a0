package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one request share Req; Parent is
// the span that was open when this one began (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. It is used from one goroutine. A
// disabled recorder records nothing, so the same code path runs untraced.
type recorder struct {
	on    bool
	epoch time.Time
	req   int
	cur   int // innermost open span
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	if !r.on {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.cur, Req: r.req, Name: name, Start: int64(time.Since(r.epoch))})
	r.cur = id
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.epoch))
	r.cur = s.Parent
}

// rename relabels a closed span, for calls whose kind is known only after
// they return (an observe that turned out to retrain).
func (r *recorder) rename(id int, name string) {
	if id != 0 {
		r.spans[id-1].Name = name
	}
}

// spanCost measures what recording one span costs on this host: the
// recorder's begin and end on a throwaway recorder, averaged over n spans.
func spanCost(n int) time.Duration {
	r := newRecorder(true)
	r.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("x"))
	}
	return time.Since(start) / time.Duration(n)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, lo, hi int64
	open := false
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b <= a {
			continue
		}
		switch {
		case !open:
			lo, hi, open = a, b, true
		case a > hi:
			total += hi - lo
			lo, hi = a, b
		case b > hi:
			hi = b
		}
	}
	if open {
		total += hi - lo
	}
	return time.Duration(total)
}

// layerStats aggregates spans by name: per-call durations and self times
// in microseconds.
type layerStats struct {
	dur, self map[string][]float64
}

func aggregate(spans []span) layerStats {
	st := layerStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.dur())/1e3)
		st.self[s.Name] = append(st.self[s.Name], float64(self[i])/1e3)
	}
	return st
}

// handlerSelf returns, per request, the serve.handler span's duration
// minus the same request's plan and predict spans: the time the in-process
// handler spent outside planning and prediction, which is the coalescing
// window, queue wait, decoding and encoding.
func handlerSelf(spans []span) []float64 {
	handler := map[int]time.Duration{}
	inner := map[int]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "serve.handler":
			handler[s.Req] += s.dur()
		case "core.plancache.plan", "core.predict_batch":
			inner[s.Req] += s.dur()
		}
	}
	reqs := make([]int, 0, len(handler))
	for r := range handler {
		reqs = append(reqs, r)
	}
	sort.Ints(reqs)
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = float64(handler[r]-inner[r]) / 1e3
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
