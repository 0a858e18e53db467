package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that divide xs into four
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method, so the benchmark's own
// spread figures match the ones its users compute from the output.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles: need at least 2 values, got %d", len(xs))
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], nil
}

// nearestRank is the 1-based rank of the p-th percentile of n values:
// the smallest rank with at least p% of the values at or below it.  The
// small tolerance keeps 99.9% of 10000 at 9990 despite float rounding.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile returns the p-th percentile (0 < p < 100) of an
// ascending slice by the nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is the percentiles tail() chooses from, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailStat is the highest percentile of a sample that still has at
// least ten samples beyond it.
type tailStat struct {
	P      float64 // the percentile, e.g. 99.9
	Value  float64
	N      int // samples in total
	Beyond int // samples above the percentile's rank
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%g=%.1f (n=%d, %d beyond)", t.P, t.Value, t.N, t.Beyond)
}

// tailOf picks the highest percentile on tailLadder with at least ten
// of n samples beyond it, reading its value with at; ok is false when
// the sample is too small for even the median to qualify (fewer than
// 20 samples).
func tailOf(n int, at func(p float64) float64) (tailStat, bool) {
	for _, p := range tailLadder {
		if beyond := n - nearestRank(p, n); beyond >= 10 {
			return tailStat{P: p, Value: at(p), N: n, Beyond: beyond}, true
		}
	}
	return tailStat{N: n}, false
}

// tail is tailOf for a sample held in full.
func tail(xs []float64) (tailStat, bool) {
	s := sortedCopy(xs)
	return tailOf(len(s), func(p float64) float64 { return percentile(s, p) })
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// latencySummary is how every latency distribution is reported: the
// median, the percentile gated end to end, and the highest trustworthy
// tail with its sample count.
type latencySummary struct {
	P50, P99 float64
	Tail     tailStat
	TailOK   bool
}

func summarize(us []float64) latencySummary {
	s := sortedCopy(us)
	t, ok := tail(s)
	return latencySummary{P50: median(s), P99: percentile(s, 99), Tail: t, TailOK: ok}
}

func (l latencySummary) String() string {
	if !l.TailOK {
		return fmt.Sprintf("p50=%.1f p99=%.1f (n=%d: too few samples for a trusted tail)", l.P50, l.P99, l.Tail.N)
	}
	return fmt.Sprintf("p50=%.1f p99=%.1f %s", l.P50, l.P99, l.Tail)
}

// hist is a latency histogram in constant memory: bucket 0 holds
// values below 1 µs and each power of two above it is split into
// histPerOctave buckets, so a quantile read from it (interpolated
// within its bucket) is within 1.1% of the exact one.  The wire
// workloads record every call into one, so the benchmark's own memory
// does not grow with the throughput it measures.
type hist struct {
	counts [1 + histOctaves*histPerOctave]uint32
	n      int64
}

const (
	histPerOctave = 64
	histOctaves   = 30 // up to 2^30 µs, about 18 minutes
)

// bucketLow is the lower edge of bucket i, in µs.
func bucketLow(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Exp2(float64(i-1) / histPerOctave)
}

func (h *hist) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	i := 0
	if us >= 1 {
		i = 1 + int(histPerOctave*math.Log2(us))
		i = min(i, len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) in µs, or NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return lo + (hi-lo)*(rank-below)/float64(c)
		}
		below += float64(c)
	}
	return bucketLow(len(h.counts))
}

// summary reports the histogram the way every latency is reported.
func (h *hist) summary() latencySummary {
	t, ok := tailOf(int(h.n), func(p float64) float64 { return h.quantile(p / 100) })
	return latencySummary{P50: h.quantile(0.5), P99: h.quantile(0.99), Tail: t, TailOK: ok}
}

// windowRates returns the throughput of each window of a phase, from
// the calls completed in it.
func windowRates(counts []int64, width time.Duration) []float64 {
	out := make([]float64, len(counts))
	for i, n := range counts {
		out[i] = float64(n) / width.Seconds()
	}
	return out
}

// spread renders the median and quartiles of xs, the form every
// per-window or per-run series is printed in.
func spread(xs []float64) string {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return fmt.Sprintf("median %.4g (n=%d)", median(xs), len(xs))
	}
	return fmt.Sprintf("median %.4g, quartiles %.4g..%.4g (n=%d)", q2, q1, q3, len(xs))
}
