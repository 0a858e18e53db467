package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names.  A span's layer is the module its interval is spent in;
// the budget attributes every instant of a root span to the innermost
// layer covering it, in the order of budgetLayers.
const (
	layerRank   = "bench.rank"    // root: one closed-loop wire rank
	layerWriter = "bench.writer"  // root: one closed-loop calibration writer
	layerApp    = "app.run"       // root: one Astro3D + MSE run (core/collective/astro3d)
	layerClient = "bench.client"  // the benchmark's own work: payloads, checks, writer pauses
	layerCall   = "srbnet.call"   // one client call, client mux through server and back
	layerCommit = "metadb.commit" // one journaled metadb mutation, call to durable ack
	layerPrice  = "predict.price" // one qos.Pricer call (predict.DB → metadb.Samples)
	layerQoS    = "qos.wait"      // pricing done → first device call: admission and DRR grant
	layerDevice = "device.op"     // one call into the server's storage backend
)

func isRoot(layer string) bool {
	return layer == layerRank || layer == layerWriter || layer == layerApp
}

// budgetLayers lists the non-root layers innermost first.
var budgetLayers = []string{layerDevice, layerQoS, layerPrice, layerCommit, layerCall, layerClient}

// span is one timed interval at a layer boundary.  Parent and Req are
// set when the span is recorded (client side) or by link (server side,
// where the handler cannot see the client's request).
type span struct {
	ID     uint64
	Parent uint64 // 0: a root, or a server span link could not place
	Req    uint64 // id of the client call the span serves (0: none)
	Layer  string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration

	path  string        // file the call addressed, for linking
	vtime time.Duration // server spans: the handler's virtual clock at the call
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracerShards spreads concurrent recorders over independent locks.
const tracerShards = 16

// tracer keeps spans in memory until the run ends.  It records only
// while on, and stops at limit spans so a long traced run cannot
// exhaust memory; dropped counts what it refused.
type tracer struct {
	epoch   time.Time
	limit   int64
	on      atomic.Bool
	nextID  atomic.Uint64
	count   atomic.Int64
	dropped atomic.Int64

	shards [tracerShards]struct {
		mu    sync.Mutex
		spans []span
	}
	// all is every span, gathered by link.
	all []span
}

func newTracer(limit int) *tracer {
	return &tracer{epoch: time.Now(), limit: int64(limit)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// newID reserves a span id, for a span whose children are recorded
// before it ends.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// add records s while the tracer is on, assigning an id when it has
// none, and returns the id.  Past the limit only root spans are kept,
// so the budget still has its totals.
func (t *tracer) add(s span) uint64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	if !t.on.Load() {
		return s.ID
	}
	if t.count.Add(1) > t.limit && !isRoot(s.Layer) {
		t.dropped.Add(1)
		return s.ID
	}
	sh := &t.shards[s.ID%tracerShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
	return s.ID
}

// grant is one qos grant event: the request's path, the handler's
// virtual clock when it was granted, and its wall-clock queue wait.
type grant struct {
	path string
	at   time.Duration
	wait time.Duration
}

// devKey finds the device span a grant admitted.
type devKey struct {
	path string
	at   time.Duration
}

// link gathers the spans and places the server-side ones under the
// client calls they served.
//
//   - A device span belongs to the client call on the same path whose
//     interval contains it (the latest such call to start, when ranks
//     share a file).
//   - A qos grant happens at the same virtual instant as the request's
//     first device call, because queueing costs no virtual time, so a
//     grant pairs with the device span of equal path and virtual start;
//     its wall wait becomes a qos.wait span ending where that device
//     span starts.
//   - Pricing runs just before the request queues, so each qos.wait
//     takes the latest unclaimed predict.price span that ended before
//     it began and after its client call started.
//
// It returns the number of server spans and grants it could not place.
func (t *tracer) link(grants []grant) (orphans int) {
	t.all = t.all[:0]
	for i := range t.shards {
		t.all = append(t.all, t.shards[i].spans...)
		t.shards[i].spans = nil
	}
	calls := make(map[string][]*span)
	callByID := make(map[uint64]*span)
	for i := range t.all {
		if s := &t.all[i]; s.Layer == layerCall {
			calls[s.path] = append(calls[s.path], s)
			callByID[s.ID] = s
		}
	}
	for _, cs := range calls {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	}
	devs := make(map[devKey][]*span)
	var prices []*span
	for i := range t.all {
		s := &t.all[i]
		switch s.Layer {
		case layerDevice:
			cs := calls[s.path]
			j := sort.Search(len(cs), func(j int) bool { return cs[j].Start > s.Start })
			for j--; j >= 0; j-- {
				if cs[j].End >= s.End {
					s.Parent, s.Req = cs[j].ID, cs[j].Req
					break
				}
			}
			if s.Parent == 0 {
				orphans++
				continue
			}
			k := devKey{s.path, s.vtime}
			devs[k] = append(devs[k], s)
		case layerPrice:
			prices = append(prices, s)
		}
	}
	for _, ds := range devs {
		sort.Slice(ds, func(i, j int) bool { return ds[i].Start < ds[j].Start })
	}
	var waits []span
	for _, g := range grants {
		k := devKey{g.path, g.at}
		ds := devs[k]
		if len(ds) == 0 {
			orphans++
			continue
		}
		d := ds[0]
		devs[k] = ds[1:]
		waits = append(waits, span{
			ID: t.newID(), Parent: d.Parent, Req: d.Req, Layer: layerQoS,
			Start: d.Start - g.wait, End: d.Start, path: d.path,
		})
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i].Start < waits[j].Start })
	sort.Slice(prices, func(i, j int) bool { return prices[i].End < prices[j].End })
	claimed := make([]bool, len(prices))
	for _, w := range waits {
		floor := callByID[w.Parent].Start
		i := sort.Search(len(prices), func(i int) bool { return prices[i].End > w.Start })
		for i--; i >= 0 && prices[i].End >= floor; i-- {
			if !claimed[i] {
				claimed[i] = true
				prices[i].Parent, prices[i].Req = w.Parent, w.Req
				break
			}
		}
	}
	for _, c := range claimed {
		if !c {
			orphans++
		}
	}
	t.all = append(t.all, waits...)
	return orphans
}

// interval is a half-open [a, b) stretch of the tracer's timeline.
type interval struct{ a, b time.Duration }

// coverage returns the total length of the union of ivs clipped to
// [lo, hi).  It sorts ivs in place.
func coverage(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, iv := range ivs {
		a, b := max(iv.a, lo), min(iv.b, hi)
		if b <= a {
			continue
		}
		if a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = a, b
			continue
		}
		curB = max(curB, b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time — its duration minus the part
// of it its children cover — for the spans of one layer.
func (t *tracer) selfTimes(layer string) []time.Duration {
	kids := make(map[uint64][]interval)
	for _, s := range t.all {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []time.Duration
	for _, s := range t.all {
		if s.Layer == layer {
			out = append(out, s.dur()-coverage(kids[s.ID], s.Start, s.End))
		}
	}
	return out
}

// durations returns the durations of every span of one layer.
func (t *tracer) durations(layer string) []time.Duration {
	var out []time.Duration
	for _, s := range t.all {
		if s.Layer == layer {
			out = append(out, s.dur())
		}
	}
	return out
}

// budget is the eq. (2)-style accounting of one traced phase: the
// wall time of every root span, split by the innermost layer covering
// each instant.  The root's uncovered remainder is the app's own time
// for app.run roots and unaccounted time for the benchmark's loops.
type budget struct {
	Total       time.Duration
	Calls       int // srbnet.call spans
	Layer       map[string]time.Duration
	AppSelf     time.Duration
	Unaccounted time.Duration
	Orphans     int
	Dropped     int64
}

func (t *tracer) budget(orphans int) budget {
	bg := budget{Layer: make(map[string]time.Duration), Orphans: orphans, Dropped: t.dropped.Load()}
	byID := make(map[uint64]*span, len(t.all))
	for i := range t.all {
		byID[t.all[i].ID] = &t.all[i]
	}
	// Descendant intervals of each root, by layer.
	under := make(map[uint64]map[string][]interval)
	for _, s := range t.all {
		if s.Layer == layerCall {
			bg.Calls++
		}
		root := s.Parent
		for hop := 0; root != 0 && hop < 4; hop++ {
			p := byID[root]
			if p == nil || p.Parent == 0 {
				break
			}
			root = p.Parent
		}
		if root == 0 {
			continue
		}
		m := under[root]
		if m == nil {
			m = make(map[string][]interval)
			under[root] = m
		}
		m[s.Layer] = append(m[s.Layer], interval{s.Start, s.End})
	}
	for _, r := range t.all {
		if r.Parent != 0 || !isRoot(r.Layer) {
			continue
		}
		bg.Total += r.dur()
		var acc []interval
		var covered time.Duration
		for _, l := range budgetLayers {
			acc = append(acc, under[r.ID][l]...)
			c := coverage(acc, r.Start, r.End)
			bg.Layer[l] += c - covered
			covered = c
		}
		if r.Layer == layerApp {
			bg.AppSelf += r.dur() - covered
		} else {
			bg.Unaccounted += r.dur() - covered
		}
	}
	return bg
}

// table renders the budget for the run's output.
func (bg budget) table(workload string) string {
	var b strings.Builder
	share := func(d time.Duration) float64 {
		if bg.Total <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(bg.Total)
	}
	perCall := func(d time.Duration) float64 {
		if bg.Calls == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(bg.Calls)
	}
	fmt.Fprintf(&b, "budget %s: %.3f s of root-span wall time over %d srbnet calls (%d orphan server groups, %d spans dropped)\n",
		workload, bg.Total.Seconds(), bg.Calls, bg.Orphans, bg.Dropped)
	fmt.Fprintf(&b, "  %-16s %12s %8s %12s\n", "layer", "self_s", "share%", "us/call")
	var sum time.Duration
	row := func(name string, d time.Duration) {
		fmt.Fprintf(&b, "  %-16s %12.4f %8.2f %12.2f\n", name, d.Seconds(), share(d), perCall(d))
	}
	for _, l := range budgetLayers {
		row(l, bg.Layer[l])
		sum += bg.Layer[l]
	}
	if bg.AppSelf > 0 {
		row("app.self", bg.AppSelf)
		sum += bg.AppSelf
	}
	row("sum of layers", sum)
	row("unaccounted", bg.Unaccounted)
	row("end-to-end", bg.Total)
	return b.String()
}

// writeCSV writes every retained span, one per line, to path.
func (t *tracer) writeCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) writeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,parent,req,name,start_ns,end_ns,path")
	for _, s := range t.all {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%s\n", s.ID, s.Parent, s.Req, s.Layer, int64(s.Start), int64(s.End), s.path)
	}
	return bw.Flush()
}
