package webui

import (
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/faultfs"
	"repro/internal/hsm"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/wal"
	"repro/internal/workflow"
)

// goldenSources is one deterministic fixture per /metrics source.
type goldenSources struct {
	sched   *qos.Scheduler
	journal *metadb.DB
	hsm     *hsm.Engine
	dag     *workflow.DAG
	plan    *workflow.Plan
	trace   *trace.Metrics
	calib   *calib.Engine
}

// newGoldenSources builds every source in virtual time, so each sample
// except the wall-clock ones (see maskedFamilies) is reproducible.
func newGoldenSources(t *testing.T, pdb *predict.DB, meta *metadb.DB) goldenSources {
	t.Helper()
	var src goldenSources
	var err error
	sim := vtime.NewVirtual()
	p := sim.NewProc("p")

	if src.sched, err = qos.New(qos.Config{Tenants: map[string]int{"astro3d": 3, "viewer": 1, "probe": 1}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.sched.Close)
	// The probe's 5 µs of service prints in exponent form (5e-06).
	for i, tenant := range []string{"astro3d", "astro3d", "viewer", "probe"} {
		service := time.Duration(i+1) * 250 * time.Millisecond
		if tenant == "probe" {
			service = 5 * time.Microsecond
		}
		if err := src.sched.Do(p, qos.Request{Tenant: tenant, Op: "write", Bytes: 10}, func() error {
			p.Advance(service)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	if src.journal, err = metadb.OpenJournal(wal.Options{FS: faultfs.New(), Dir: "journal"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.journal.CloseJournal() })
	for _, id := range []string{"r1", "r2"} {
		if err := src.journal.PutRun(nil, metadb.Run{ID: id, App: "a", User: "u", Iterations: 1, Procs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.journal.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	pool, err := remotedisk.New("pool", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := tape.New(tape.Config{Name: "vault", Params: model.RemoteTape2000(), Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if src.hsm, err = hsm.New(hsm.Config{
		Sim: sim, Meta: metadb.New(), Pool: pool, Tape: lib,
		PoolCapacity: 10_000,
		Policy:       hsm.Policy{ColdAfter: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.hsm.Close)
	for _, name := range []string{"a", "b"} {
		if err := src.hsm.Put(p, name, []byte("payload-"+name)); err != nil {
			t.Fatal(err)
		}
	}
	p.Advance(2 * time.Hour)
	if err := src.hsm.Tick(p); err != nil {
		t.Fatal(err)
	}
	if _, err := src.hsm.Read(p, "a"); err != nil {
		t.Fatal(err)
	}

	src.dag = workflow.Pipeline(16, 12, 6, 4)
	if src.plan, err = src.dag.Provision(pdb, "localdisk", []workflow.Tier{
		{Class: "localdisk", Free: 1 << 31},
		{Class: "remotedisk", Free: 1 << 31},
	}); err != nil {
		t.Fatal(err)
	}

	// Per-call costs spread around a mean of scale × the predicted
	// cost: remote-disk writes at twice it drift outside the band,
	// local-disk reads at it stay inside.
	src.trace = trace.NewMetrics()
	src.calib = calib.New(calib.Config{Meta: meta, Classes: map[string]string{"r": "remotedisk", "l": "localdisk"}})
	for _, o := range []struct {
		backend string
		op      trace.Op
		class   string
		scale   float64
	}{{"r", trace.OpWrite, "remotedisk", 2}, {"l", trace.OpRead, "localdisk", 1}} {
		u, err := pdb.Unit(o.class, string(o.op), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			src.trace.Observe(trace.Event{Backend: o.backend, Op: o.op, Bytes: 1 << 20,
				Cost: time.Duration(u * o.scale * float64(i+1) / 4.5 * float64(time.Second))})
		}
	}
	return src
}

// maskedFamilies carry wall-clock-derived values; their sample values
// are replaced before comparison.
var maskedFamilies = []string{
	"msra_qos_wait_seconds_total",
	"msra_wal_replay_seconds",
	"msra_wal_last_checkpoint_timestamp_seconds",
}

// exposedFamilies splits a scrape into its families, keyed by name,
// with the masked families' values replaced by MASKED.
func exposedFamilies(t *testing.T, body string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	var name string
	for _, line := range strings.SplitAfter(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
			if _, dup := out[name]; dup {
				t.Fatalf("family %s exposed twice", name)
			}
		} else if name == "" {
			t.Fatalf("line outside any family: %q", line)
		}
		for _, m := range maskedFamilies {
			if name == m && !strings.HasPrefix(line, "#") {
				line = line[:strings.LastIndexByte(line, ' ')] + " MASKED\n"
			}
		}
		out[name] += line
	}
	return out
}

// TestMetricsGolden attaches every source at once and compares the
// scrape with testdata/metrics.golden, which the hand-written
// per-subsystem formatters that webui had before internal/metrics
// (commit f73f784) produced over the same fixtures.  The exposition
// must keep every family's HELP/TYPE text and sample lines byte for
// byte; only the order between families is free.
func TestMetricsGolden(t *testing.T) {
	h, meta := newHandlerMeta(t)
	src := newGoldenSources(t, h.pdb, meta)
	WithCollectors(src.sched, src.journal, src.hsm,
		workflow.Collector{DAG: src.dag, PDB: h.pdb, Overlap: 0.5, Plan: src.plan})(h)
	WithMetrics(src.trace)(h)
	WithCalibration(src.calib)(h)
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, exp := exposedFamilies(t, body), exposedFamilies(t, string(want))
	names := make([]string, 0, len(exp))
	for name := range exp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != exp[name] {
			t.Errorf("family %s:\ngot:\n%swant:\n%s", name, got[name], exp[name])
		}
	}
	for name := range got {
		if _, ok := exp[name]; !ok {
			t.Errorf("family %s not in the golden scrape", name)
		}
	}
}
