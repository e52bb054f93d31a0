package main

import (
	"bytes"
	"testing"
)

func testStream(t *testing.T, name string, seed int64) *stream {
	t.Helper()
	s, err := newStream(workloads[name], seed, 400)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for name := range workloads {
		a, b := testStream(t, name, 7), testStream(t, name, 7)
		other := testStream(t, name, 8)
		differs := false
		for k := 0; k < 300; k++ {
			ba, bb := a.body(a.request(k)), b.body(b.request(k))
			if !bytes.Equal(ba, bb) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", name, k)
			}
			differs = differs || !bytes.Equal(ba, other.body(other.request(k)))
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same 300 requests", name)
		}
	}
}

func TestRepeatShare(t *testing.T) {
	if got := testStream(t, "predict-hot", 1).repeatShare(300); got < 0.95 {
		t.Errorf("predict-hot repeat share %.4f, want about 1", got)
	}
	if got := testStream(t, "predict-cold", 1).repeatShare(300); got != 0 {
		t.Errorf("predict-cold repeat share %.4f, want 0", got)
	}
}

func TestObserveChurnMix(t *testing.T) {
	s := testStream(t, "observe-churn", 3)
	observes := 0
	for k := 0; k < 2000; k++ {
		r := s.request(k)
		if r.Observe {
			observes++
			if len(r.Queries) != 1 {
				t.Fatalf("observe request %d carries %d observations", k, len(r.Queries))
			}
		} else if len(r.Queries) != 16 {
			t.Fatalf("predict request %d carries %d queries", k, len(r.Queries))
		}
	}
	if observes < 900 || observes > 1100 {
		t.Errorf("%d of 2000 requests are observes, want about half", observes)
	}
	for _, q := range s.queries {
		if q.Actual.ElapsedSec <= 0 {
			t.Fatalf("pool query without a simulated elapsed time: %q", q.SQL)
		}
	}
}

func TestColdStreamFillsActualsOnDemand(t *testing.T) {
	s := testStream(t, "predict-cold", 1)
	if s.limit() != 400 {
		t.Fatalf("limit %d, want 400", s.limit())
	}
	if err := s.fillActuals(50); err != nil {
		t.Fatal(err)
	}
	if s.queries[49].Actual.ElapsedSec <= 0 || s.queries[50].Actual.ElapsedSec != 0 {
		t.Errorf("actuals filled for the wrong prefix")
	}
}
