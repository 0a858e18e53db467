package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3.0, 4.5}},
		{[]float64{3.5, 1.25, 9, 7}, [3]float64{1.8125, 5.25, 8.5}},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: p99 has 10 beyond it, p99.9 only 1.
	got, ok := tail(xs)
	if !ok || got.P != 99 || got.Beyond != 10 || got.Value != 990 || got.N != 1000 {
		t.Fatalf("tail = %+v, %v; want p99 = 990 with 10 beyond", got, ok)
	}
	if _, ok := tail(xs[:19]); ok {
		t.Error("19 samples cannot give even the median ten samples beyond it")
	}
	if got, ok := tail(xs[:20]); !ok || got.P != 50 {
		t.Errorf("20 samples: tail = %+v, %v; want the median", got, ok)
	}
}

func TestHistQuantilesWithinBucketError(t *testing.T) {
	var h hist
	xs := make([]float64, 0, 10000)
	for i := 1; i <= 10000; i++ {
		us := float64(i) * 0.37 // 0.37 µs .. 3.7 ms
		xs = append(xs, us)
		h.add(time.Duration(us * float64(time.Microsecond)))
	}
	s := sortedCopy(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := percentile(s, q*100)
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.011 {
			t.Errorf("q%.3f: hist %.3f, exact %.3f", q, got, want)
		}
	}
	sum := h.summary()
	if !sum.TailOK || sum.Tail.P != 99.9 || sum.Tail.Beyond != 10 {
		t.Errorf("summary tail = %+v", sum.Tail)
	}
	var m hist
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merging a histogram with itself changed its median")
	}
}

func TestWindowRates(t *testing.T) {
	got := windowRates([]int64{100, 0, 250}, 100*time.Millisecond)
	if len(got) != 3 || got[0] != 1000 || got[1] != 0 || got[2] != 2500 {
		t.Errorf("windowRates = %v, want [1000 0 2500]", got)
	}
	if m := median(got); m != 1000 {
		t.Errorf("median rate %v, want 1000", m)
	}
}
