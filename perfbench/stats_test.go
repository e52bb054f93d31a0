package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileReportsSampleCount(t *testing.T) {
	p, err := percentile(seq(1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 990 || p.Samples != 1000 || p.Beyond != 10 {
		t.Errorf("p99 of 1..1000 = %+v, want value 990 with 1000 samples and 10 beyond", p)
	}
	p, err = percentile(seq(5), 50)
	if err != nil || p.Value != 3 || p.Samples != 5 {
		t.Errorf("p50 of 1..5 = %+v, %v", p, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was not refused")
	}
	if _, err := percentile(seq(100), 95); err == nil {
		t.Error("p95 of 100 samples (5 beyond) was not refused")
	}
	if _, err := percentile(seq(200), 95); err != nil {
		t.Errorf("p95 of 200 samples (10 beyond) refused: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of an empty sample was not refused")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 5 * ms, End: 6 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond, time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self time %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNestsAndDisables(t *testing.T) {
	r := newRecorder(true)
	r.req = 4
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	r.end(outer)
	if len(r.spans) != 2 || r.spans[1].Parent != outer || r.spans[1].Req != 4 || r.cur != 0 {
		t.Errorf("spans %+v", r.spans)
	}
	off := newRecorder(false)
	off.end(off.begin("x"))
	if len(off.spans) != 0 {
		t.Error("disabled recorder kept spans")
	}
}
