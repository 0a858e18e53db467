package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Metrics folds events into per-(backend, op) aggregates as they are
// recorded: call/byte/cost counters, an approximate cost distribution
// (p50/p95/max), and per-log2-size-bucket unit statistics.  It is the
// always-on counterpart of the raw event log — a fold costs one map
// lookup and a handful of integer adds, so it is cheap enough to leave
// attached for whole runs, and it is what the calibration engine joins
// against eq. (2) predictions.
//
// A nil *Metrics is valid and observes nothing, mirroring *Recorder.
type Metrics struct {
	mu    sync.Mutex
	cells map[opKey]*cell
}

type opKey struct {
	backend string
	op      Op
}

// costBuckets is the number of log2-microsecond histogram buckets:
// bucket i counts costs in [2^i, 2^(i+1)) µs, bucket 0 also absorbs
// sub-microsecond costs.  40 buckets reach ~2^40 µs ≈ 12 days, far
// beyond any simulated call.
const costBuckets = 40

type cell struct {
	calls   int64
	bytes   int64
	cost    time.Duration
	costMax time.Duration
	hist    [costBuckets]int64
	sizes   map[int]*sizeCell
}

type sizeCell struct {
	calls int64
	bytes int64
	cost  time.Duration
}

// NewMetrics returns an empty aggregation.
func NewMetrics() *Metrics { return &Metrics{cells: make(map[opKey]*cell)} }

// Observe folds one event in.  Safe for concurrent use; no-op on nil.
func (m *Metrics) Observe(e Event) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := opKey{e.Backend, e.Op}
	c, ok := m.cells[key]
	if !ok {
		c = &cell{sizes: make(map[int]*sizeCell)}
		m.cells[key] = c
	}
	c.calls++
	c.bytes += e.Bytes
	c.cost += e.Cost
	if e.Cost > c.costMax {
		c.costMax = e.Cost
	}
	c.hist[costBucket(e.Cost)]++
	if e.Bytes > 0 {
		b := sizeBucket(e.Bytes)
		sc, ok := c.sizes[b]
		if !ok {
			sc = &sizeCell{}
			c.sizes[b] = sc
		}
		sc.calls++
		sc.bytes += e.Bytes
		sc.cost += e.Cost
	}
}

// Reset discards all aggregates.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cells = make(map[opKey]*cell)
	m.mu.Unlock()
}

// costBucket maps a cost to its log2-microsecond histogram bucket.
func costBucket(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= costBuckets {
		b = costBuckets - 1
	}
	return b
}

// sizeBucket maps a positive byte count to its log2 bucket: bucket k
// covers [2^k, 2^(k+1)).
func sizeBucket(n int64) int { return bits.Len64(uint64(n)) - 1 }

// SizeBucket is the aggregate over one log2 range of native call sizes.
type SizeBucket struct {
	// Lo/Hi bound the bucket: sizes in [Lo, Hi) bytes.
	Lo, Hi int64
	Calls  int64
	Bytes  int64
	Cost   time.Duration
}

// MeanBytes is the average native call size in this bucket.
func (b SizeBucket) MeanBytes() int64 {
	if b.Calls == 0 {
		return 0
	}
	return b.Bytes / b.Calls
}

// MeanCost is the average per-call cost in this bucket.
func (b SizeBucket) MeanCost() time.Duration {
	if b.Calls == 0 {
		return 0
	}
	return b.Cost / time.Duration(b.Calls)
}

// OpStats is the snapshot of one (backend, op) cell.
type OpStats struct {
	Backend string
	Op      Op
	Calls   int64
	Bytes   int64
	// Cost is the summed simulated cost across all calls.
	Cost time.Duration
	// CostP50/CostP95 are approximate quantiles from a log2 histogram
	// (reported as the upper edge of the containing bucket); CostMax is
	// exact.
	CostP50 time.Duration
	CostP95 time.Duration
	CostMax time.Duration
	// Sizes are per-log2-size-bucket unit statistics for calls that
	// moved bytes, sorted by Lo.  This is the measured side of the
	// calibration join: each bucket is one (mean size, mean unit cost)
	// point on the resource's observed performance curve.
	Sizes []SizeBucket
}

// MeanCost is the average per-call cost.
func (s OpStats) MeanCost() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Cost / time.Duration(s.Calls)
}

// quantile walks the histogram cumulatively and returns the upper edge
// of the bucket containing the q-th fraction of calls.
func (c *cell) quantile(q float64) time.Duration {
	if c.calls == 0 {
		return 0
	}
	target := int64(q * float64(c.calls))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range c.hist {
		seen += n
		if seen >= target {
			upper := time.Duration(1<<(i+1)) * time.Microsecond
			if upper > c.costMax {
				upper = c.costMax
			}
			return upper
		}
	}
	return c.costMax
}

// Snapshot returns the current aggregates sorted by (backend, op).
func (m *Metrics) Snapshot() []OpStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]OpStats, 0, len(m.cells))
	for key, c := range m.cells {
		s := OpStats{
			Backend: key.backend,
			Op:      key.op,
			Calls:   c.calls,
			Bytes:   c.bytes,
			Cost:    c.cost,
			CostP50: c.quantile(0.50),
			CostP95: c.quantile(0.95),
			CostMax: c.costMax,
		}
		for b, sc := range c.sizes {
			s.Sizes = append(s.Sizes, SizeBucket{
				Lo:    1 << b,
				Hi:    1 << (b + 1),
				Calls: sc.calls,
				Bytes: sc.bytes,
				Cost:  sc.cost,
			})
		}
		sort.Slice(s.Sizes, func(i, j int) bool { return s.Sizes[i].Lo < s.Sizes[j].Lo })
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Backend != out[j].Backend {
			return out[i].Backend < out[j].Backend
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Collect implements metrics.Collector: the snapshot as the
// msra_native_* families — call, byte and summed-cost counters and the
// approximate per-call cost quantiles, by backend and op.
func (m *Metrics) Collect() ([]metrics.Family, error) {
	snap := m.Snapshot()
	calls := metrics.Counter("msra_native_calls_total", "Native storage calls served, by backend and op.")
	bytes := metrics.Counter("msra_native_bytes_total", "Bytes moved by native calls.")
	cost := metrics.Counter("msra_native_cost_seconds_total", "Summed simulated cost of native calls.")
	quant := metrics.Family{Name: "msra_native_cost_seconds", Help: "Approximate per-call cost quantiles.", Type: "summary"}
	for _, s := range snap {
		l := []string{"backend", s.Backend, "op", string(s.Op)}
		calls.Samples = append(calls.Samples, metrics.Int(s.Calls, l...))
		bytes.Samples = append(bytes.Samples, metrics.Int(s.Bytes, l...))
		cost.Samples = append(cost.Samples, metrics.Float(s.Cost.Seconds(), l...))
		max := metrics.Float(s.CostMax.Seconds(), l...)
		max.Suffix = "_max"
		quant.Samples = append(quant.Samples,
			metrics.Float(s.CostP50.Seconds(), append(l[:4:4], "quantile", "0.5")...),
			metrics.Float(s.CostP95.Seconds(), append(l[:4:4], "quantile", "0.95")...),
			max)
	}
	return []metrics.Family{calls, bytes, cost, quant}, nil
}

// String renders the snapshot as a table.
func (m *Metrics) String() string {
	s := fmt.Sprintf("%-16s %-10s %8s %14s %12s %10s %10s %10s\n",
		"backend", "op", "calls", "bytes", "cost(s)", "p50(ms)", "p95(ms)", "max(ms)")
	for _, l := range m.Snapshot() {
		s += fmt.Sprintf("%-16s %-10s %8d %14d %12.3f %10.3f %10.3f %10.3f\n",
			l.Backend, l.Op, l.Calls, l.Bytes, l.Cost.Seconds(),
			float64(l.CostP50.Microseconds())/1000,
			float64(l.CostP95.Microseconds())/1000,
			float64(l.CostMax.Microseconds())/1000)
	}
	return s
}
