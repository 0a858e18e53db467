// Command perfbench is the broker stack's benchmark.  It assembles srbd
// in-process the way cmd/srbd wires it — srb broker, sdsc-disk remote
// disk array, sdsc-hpss tape library, PTool-populated metadb,
// predictor-priced qos admission at max-inflight 8, srbnet v3 server on
// loopback — with the server on a purely virtual clock, so no
// wall-clock figure contains a simulated device sleep.  It then drives
// one workload against it, checks every output, and prints its metrics
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage:
//
//	perfbench -workload wire_small|journaled_mix|astro3d_wire [-seed N] [-seconds S] [-trace 0|1]
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs half the time untraced and half traced, prints the per-layer
// budget table and reports the per-layer metrics.  README.md lists the
// workloads, the metrics and which layer each one measures.  Scratch
// files (journals, span dumps, result records) go under .bench_build in
// the working directory.  A failed output check exits non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/wal"
)

// workloads maps each workload to how it loads the stack and why it is
// in the benchmark.
var workloads = map[string]struct {
	loop string
	why  string
}{
	"wire_small": {
		loop: "closed loop, 16 ranks (2 tenants 3:1, 8 ranks each) on 2 connections, 4 KiB ReadAt/WriteAt 50/50, in-memory metadb",
		why:  "per-request software cost: client mux, v3 codec, server demux, pricing and DRR grant; 16 ranks against max-inflight 8 keep a qos backlog",
	},
	"journaled_mix": {
		loop: "closed loop, the wire_small ranks plus 2 calibration writers committing to the fsync-before-ack metadb journal, 5 ms between an ack and the next commit",
		why:  "a journaled mutation holds the metadb lock through its fsync, so admission pricing reads queue behind it",
	},
	"astro3d_wire": {
		loop: "closed loop, repeated Astro3D (64^3, 48 iterations, dump every 6, 8 ranks) + MSE through 2 srbnet clients, 1 connection each",
		why:  "the paper's application: large vectored collective transfers, read-after-write, tape mounts and the eq. (2) prediction",
	},
}

type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string // printed before the result line
	checkErrs         []string
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *result) fail(n int64, err error) {
	r.failed += n
	if err != nil && len(r.checkErrs) < 8 {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

type runOptions struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory for journals
	spans    string // span dump path (traced runs)
}

func main() {
	workload := flag.String("workload", "", "wire_small, journaled_mix or astro3d_wire")
	seed := flag.Int64("seed", 1, "workload seed: op order, offsets and payload bytes")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool) error {
	base := filepath.Join(".bench_build", "perfbench")
	work, err := os.MkdirTemp(mkdir(base), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := newEnvRecord(seed, work)
	o := runOptions{
		workload: name, seed: seed, seconds: d, traced: traced, work: work,
		spans: filepath.Join(base, "spans", name+".csv"),
	}
	res, err := runWorkload(o, env)
	if err != nil {
		return err
	}
	res.correct = res.failed == 0
	if res.attempted < 1 {
		return errors.New("no operation completed")
	}

	fmt.Printf("workload %s: %s\n", name, workloads[name].loop)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	for _, n := range res.notes {
		fmt.Println(strings.TrimRight(n, "\n"))
	}
	for _, e := range res.checkErrs {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
	out := map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
	}
	ms := make(map[string]any, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	if err := saveRecord(base, o, env, out, res.notes); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result record: %v\n", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		return fmt.Errorf("%d of %d operations failed their output checks", res.failed, res.attempted)
	}
	return nil
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// saveRecord stores the result with the environment it was measured
// in, one file per workload, seed and mode.
func saveRecord(base string, o runOptions, env envRecord, out map[string]any, notes []string) error {
	rec := map[string]any{
		"workload": o.workload, "why": workloads[o.workload].why, "loop": workloads[o.workload].loop,
		"seconds": o.seconds.Seconds(), "trace": o.traced, "env": env, "result": out, "notes": notes,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := mkdir(filepath.Join(base, "results"))
	mode := 0
	if o.traced {
		mode = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, mode)), append(b, '\n'), 0o644)
}

func runWorkload(o runOptions, env envRecord) (*result, error) {
	switch o.workload {
	case "wire_small":
		return runWire(o, wireConfig{})
	case "journaled_mix":
		if env.JournalFS == "tmpfs" {
			return nil, fmt.Errorf("journaled_mix refuses to run on tmpfs (%s): tmpfs would hide the fsync", o.work)
		}
		return runWire(o, wireConfig{journaled: true, writers: 2, think: writerThink})
	default:
		return runAstro3D(o)
	}
}

// setupReps is how many times an untraced run assembles the stack;
// setup_s is the median.
const setupReps = 7

// writerThink is a calibration writer's pause between an
// acknowledged commit and its next one.  Back to back, two writers keep
// the metadb lock held through an fsync nearly all the time, and the
// wire throughput then follows the shared disk's fsync latency, which
// drifts by more than half between minutes on a shared machine; with the
// pause the lock is held a fraction of the time and the journal shows in
// the tails, the pricer waits and the commit figures.
const writerThink = 5 * time.Millisecond

// phaseWindows is how many windows a wire phase's throughput is the
// median over.  At 100 ms per window (20 s runs) a stall of the shared
// machine or disk moves the few windows it falls in, not the median.
const phaseWindows = 200

// spanLimit bounds the spans a traced run keeps in memory, and
// tracedWire the traced phase of a wire workload, which records about
// five spans per call: a few seconds of spans are enough for the
// per-layer figures, and fit the limit.
const (
	spanLimit  = 1 << 20
	tracedWire = 3 * time.Second
)

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runWire(o runOptions, cfg wireConfig) (*result, error) {
	res := &result{}
	dirs := 0
	setup := func(tr *tracer) (*wireStack, string, time.Duration, error) {
		dirs++
		dir := filepath.Join(o.work, fmt.Sprintf("journal-%d", dirs))
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		w, err := setupWire(cfg, o.seed, dir, phaseWindows, tr)
		return w, dir, time.Since(t0), err
	}
	// finish checks every file, closes the stack and replays its
	// journal.
	finish := func(w *wireStack, dir string, ph wirePhase) error {
		res.attempted += ph.attempted
		res.fail(ph.failed, ph.firstErr)
		reads, bad, verr := w.verifyFiles()
		res.attempted += reads
		res.fail(bad, verr)
		if err := w.close(); err != nil {
			return fmt.Errorf("teardown: %w", err)
		}
		if cfg.journaled {
			var acked uint64
			for _, a := range ph.acked {
				acked += uint64(a)
			}
			if ph.walDelta.Appends != acked {
				res.fail(1, fmt.Errorf("journal appended %d records for %d acknowledged commits", ph.walDelta.Appends, acked))
			}
			if err := checkReplay(dir, ph.acked); err != nil {
				res.fail(1, err)
			}
		}
		return os.RemoveAll(dir)
	}
	opsPerS := func(ph wirePhase) float64 { return float64(ph.calls.n) / ph.wall.Seconds() }

	if !o.traced {
		var setups []float64
		var w *wireStack
		var dir string
		for i := 0; i < setupReps; i++ {
			var d time.Duration
			var err error
			if w, dir, d, err = setup(nil); err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			if i < setupReps-1 {
				if err := finish(w, dir, wirePhase{}); err != nil {
					return nil, err
				}
			}
		}
		ph := w.run(o.seconds, nil)
		if err := finish(w, dir, ph); err != nil {
			return nil, err
		}
		lat := ph.calls.summary()
		rates := windowRates(ph.counts, ph.width)
		res.note("wire calls: %d in %.3f s; latency us %s", ph.calls.n, ph.wall.Seconds(), lat)
		res.note("ops/s per %v window: %s", ph.width, spread(rates))
		if ph.commits.n > 0 {
			res.note("calibration commits: %d; latency us %s", ph.commits.n, ph.commits.summary())
		}
		res.note("setup s: %s", spread(setups))
		res.add("ops_per_s", "ops/s", median(rates))
		res.add("op_p50_us", "us", lat.P50)
		res.add("heap_peak_MiB", "MiB", ph.heapMiB)
		res.add("setup_s", "s", median(setups))
		return res, nil
	}

	// Traced: the first half untraced (process costs, overhead base),
	// then at most tracedWire on a traced stack.
	half := o.seconds / 2
	w, dir, _, err := setup(nil)
	if err != nil {
		return nil, err
	}
	plain := w.run(half, nil)
	if err := finish(w, dir, plain); err != nil {
		return nil, err
	}
	tr := newTracer(spanLimit)
	if w, dir, _, err = setup(tr); err != nil {
		return nil, err
	}
	ph := w.run(min(half, tracedWire), tr)
	q := w.st.qosLayer()
	grants := w.st.grants()
	devVirt := w.st.virtSeconds("")
	if err := finish(w, dir, ph); err != nil {
		return nil, err
	}
	layers := tracedLayers(res, tr, grants, o)
	layers.qos = q
	layers.devVirt = devVirt
	layers.wal = ph.walDelta
	layers.overheadPct = 100 * (ratio(opsPerS(plain), opsPerS(ph)) - 1)
	layers.proc = plain.proc
	layers.procOps = plain.calls.n + plain.commits.n
	if plain.commits.n > 0 {
		cl := plain.commits.summary()
		layers.commitsPerS = float64(plain.commits.n) / plain.wall.Seconds()
		layers.commitP50, layers.commitP99 = cl.P50, cl.P99
		res.note("untraced calibration commits: %d; latency us %s", plain.commits.n, cl)
	}
	layers.opP99 = plain.calls.quantile(0.99)
	res.note("untraced wire calls: %d in %.3f s; latency us %s", plain.calls.n, plain.wall.Seconds(), plain.calls.summary())
	res.note("traced wire calls: %d in %.3f s; latency us %s", ph.calls.n, ph.wall.Seconds(), ph.calls.summary())
	layers.report(res)
	return res, nil
}

// layerFigures gathers the per-layer metrics of a traced run; fields a
// workload does not exercise stay zero.
type layerFigures struct {
	calls        int
	selfP50      float64
	selfShare    float64
	qos          qosLayer
	priceCalls   int
	priceP50     float64
	priceP99     float64
	wal          wal.Stats
	opP99        float64
	deviceCalls  int
	deviceSelfUS float64
	devVirt      float64
	mounts       float64
	tapeVirt     float64
	appSelfShare float64
	proc         procDelta
	procOps      int64
	overheadPct  float64
	commitsPerS  float64
	commitP50    float64
	commitP99    float64
	appWall      float64
	ioVirt       float64
	predErr      float64
}

// tracedLayers links the spans, prints the budget and fills the
// span-derived figures.
func tracedLayers(res *result, tr *tracer, grants []grant, o runOptions) *layerFigures {
	orphans := tr.link(grants)
	bg := tr.budget(orphans)
	res.note("%s", bg.table(o.workload))
	if err := tr.writeCSV(o.spans); err != nil {
		res.note("span dump: %v", err)
	} else {
		res.note("spans written to %s", o.spans)
	}
	l := &layerFigures{calls: bg.Calls}
	self := tr.selfTimes(layerCall)
	if len(self) > 0 {
		l.selfP50 = median(micros(self))
	}
	l.selfShare = ratio(float64(bg.Layer[layerCall]), float64(bg.Total))
	l.appSelfShare = ratio(float64(bg.AppSelf), float64(bg.Total))
	price := micros(tr.durations(layerPrice))
	l.priceCalls = len(price)
	if len(price) > 0 {
		s := sortedCopy(price)
		l.priceP50, l.priceP99 = median(s), percentile(s, 99)
		res.note("pricer latency us %s", summarize(price))
	}
	dev := tr.durations(layerDevice)
	l.deviceCalls = len(dev)
	for _, d := range dev {
		l.deviceSelfUS += usOf(d)
	}
	return l
}

// report adds every per-layer metric, in BENCHMARK.json order.
func (l *layerFigures) report(res *result) {
	res.add("srbnet.calls", "count", float64(l.calls))
	res.add("srbnet.self_us_p50", "us", l.selfP50)
	res.add("srbnet.self_share", "fraction", l.selfShare)
	res.add("qos.wait_us_p50", "us", l.qos.waitP50)
	res.add("qos.wait_us_p99", "us", l.qos.waitP99)
	res.add("qos.max_depth", "count", float64(l.qos.maxDepth))
	res.add("qos.overloads", "count", float64(l.qos.overloads))
	res.add("qos.share_ratio", "ratio", l.qos.shareRatio)
	res.add("predict.price_calls", "count", float64(l.priceCalls))
	res.add("predict.price_us_p50", "us", l.priceP50)
	res.add("predict.price_us_p99", "us", l.priceP99)
	res.add("wal.appends", "count", float64(l.wal.Appends))
	res.add("wal.syncs", "count", float64(l.wal.Syncs))
	res.add("wal.appends_per_sync", "ratio", ratio(float64(l.wal.Appends), float64(l.wal.Syncs)))
	res.add("wal.bytes_per_commit", "B", ratio(float64(l.wal.AppendBytes), float64(l.wal.Appends)))
	res.add("device.calls", "count", float64(l.deviceCalls))
	res.add("device.self_us_total", "us", l.deviceSelfUS)
	res.add("device.virt_s", "sim_s", l.devVirt)
	res.add("tape.mounts", "count", l.mounts)
	res.add("tape.virt_s", "sim_s", l.tapeVirt)
	res.add("app.self_share", "fraction", l.appSelfShare)
	ops := float64(l.procOps)
	res.add("proc.allocs_per_op", "count", ratio(float64(l.proc.mallocs), ops))
	res.add("proc.alloc_bytes_per_op", "B", ratio(float64(l.proc.allocBytes), ops))
	res.add("proc.cpu_us_per_op", "us", ratio(usOf(l.proc.cpu), ops))
	res.add("proc.gc_cycles", "count", float64(l.proc.gcCycles))
	res.add("trace.overhead_pct", "%", l.overheadPct)
	res.add("op_p99_us", "us", l.opP99)
	res.add("commits_per_s", "commits/s", l.commitsPerS)
	res.add("commit_p50_us", "us", l.commitP50)
	res.add("commit_p99_us", "us", l.commitP99)
	res.add("app_wall_s", "s", l.appWall)
	res.add("io_virt_s", "sim_s", l.ioVirt)
	res.add("pred_err_pct", "%", l.predErr)
	res.add("error_rate", "fraction", ratio(float64(res.failed), float64(res.attempted)))
}

func runAstro3D(o runOptions) (*result, error) {
	res := &result{}
	ref, err := astroReference()
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	runtime.GC()
	n := 0
	// reps runs repetitions until d has passed (at least min of them).
	reps := func(d time.Duration, min int, mode astroMode, tr *tracer) ([]astroRep, float64, error) {
		heap := startHeapSampler()
		var out []astroRep
		for end := time.Now().Add(d); len(out) < min || time.Now().Before(end); {
			n++
			rep, err := astroOnce(fmt.Sprintf("astro3d-s%d-r%d", o.seed, n), filepath.Join(o.work, fmt.Sprintf("client-journal-%d", n)), mode, tr)
			res.attempted++
			if err != nil {
				heap.peakMiB()
				return nil, 0, err
			}
			if err := rep.out.check(ref); err != nil {
				res.fail(1, err)
			}
			out = append(out, rep)
		}
		return out, heap.peakMiB(), nil
	}
	sum := func(rs []astroRep) (wall []float64, calls []time.Duration, virt []float64, pred []float64) {
		for _, r := range rs {
			wall = append(wall, r.wall.Seconds())
			calls = append(calls, r.calls...)
			virt = append(virt, r.out.ioVirt.Seconds())
			pred = append(pred, r.predErr)
		}
		return
	}
	if !o.traced {
		rs, heapMiB, err := reps(o.seconds, setupReps, astroTimed, nil)
		if err != nil {
			return nil, err
		}
		wall, calls, virt, pred := sum(rs)
		var setupList []float64
		for _, r := range rs {
			setupList = append(setupList, r.setup.Seconds())
		}
		lat := summarize(micros(calls))
		ops, p50, p99 := perRun(rs)
		res.note("runs: %d, each checked against the in-process run with %d stored files read back; io_virt_s %v; eq. (2) prediction s %.3f, pred_err_pct %v",
			len(rs), len(rs[0].out.stored), virt, rs[0].pred.Seconds(), pred)
		res.note("client calls: %d; latency us %s", len(calls), lat)
		res.note("per run: ops/s %.1f, p50 %.1f us, p99 %.1f us (medians); app wall s %s", ops, p50, p99, spread(wall))
		res.note("setup s: %s", spread(setupList))
		res.add("ops_per_s", "ops/s", ops)
		res.add("op_p50_us", "us", p50)
		res.add("heap_peak_MiB", "MiB", heapMiB)
		res.add("setup_s", "s", median(setupList))
		return res, nil
	}

	plain, _, err := reps(o.seconds/2, 1, astroTimed, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(spanLimit)
	traced, _, err := reps(o.seconds/2, 1, astroTraced, tr)
	if err != nil {
		return nil, err
	}
	var grants []grant
	for _, r := range traced {
		grants = append(grants, r.grants...)
	}
	l := tracedLayers(res, tr, grants, o)
	nt := float64(len(traced))
	var mounts, tapeVirt, devVirt []float64
	for _, r := range traced {
		l.wal.Appends += r.wal.Appends
		l.wal.AppendBytes += r.wal.AppendBytes
		l.wal.Syncs += r.wal.Syncs
		mounts = append(mounts, float64(r.mounts))
		tapeVirt = append(tapeVirt, r.tapeVirt)
		devVirt = append(devVirt, r.devVirt)
	}
	// Counts are per run, so they do not depend on how many runs fit.
	l.calls = int(float64(l.calls) / nt)
	l.priceCalls = int(float64(l.priceCalls) / nt)
	l.deviceCalls = int(float64(l.deviceCalls) / nt)
	l.deviceSelfUS /= nt
	l.wal.Appends /= uint64(nt)
	l.wal.Syncs /= uint64(nt)
	l.wal.AppendBytes /= int64(nt)
	l.mounts, l.tapeVirt, l.devVirt = median(mounts), median(tapeVirt), median(devVirt)
	l.qos = traced[len(traced)-1].qos
	wall, calls, virt, pred := sum(plain)
	twall, _, _, _ := sum(traced)
	_, _, l.opP99 = perRun(plain)
	l.appWall = median(wall)
	l.ioVirt = median(virt)
	l.predErr = median(pred)
	l.overheadPct = 100 * (ratio(median(twall), median(wall)) - 1)
	var appends uint64
	var totalWall float64
	for _, r := range plain {
		l.proc.mallocs += r.proc.mallocs
		l.proc.allocBytes += r.proc.allocBytes
		l.proc.gcCycles += r.proc.gcCycles
		l.proc.cpu += r.proc.cpu
		appends += r.wal.Appends
		totalWall += r.wall.Seconds()
	}
	l.procOps = int64(len(calls))
	l.commitsPerS = float64(appends) / totalWall
	res.note("untraced runs: %d; app wall s %v; io_virt_s %v; pred_err_pct %v", len(plain), wall, virt, pred)
	res.note("traced runs: %d; app wall s %v", len(traced), twall)
	l.report(res)
	return res, nil
}

// perRun returns the median over runs of each run's client-call
// throughput and latency percentiles (µs).
func perRun(rs []astroRep) (opsPerS, p50, p99 float64) {
	var a, b, c []float64
	for _, r := range rs {
		s := sortedCopy(micros(r.calls))
		a = append(a, float64(len(s))/r.wall.Seconds())
		b = append(b, median(s))
		c = append(c, percentile(s, 99))
	}
	return median(a), median(b), median(c)
}
