package webui

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/hsm"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/remotedisk"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// TestHSMMetrics: the HSM engine as the only collector turns /metrics
// on and the msra_hsm_* families carry real lifecycle counters — a
// migration and a recall show up in the census, the mount counter and
// the hit/miss split.
func TestHSMMetrics(t *testing.T) {
	sim := vtime.NewVirtual()
	pool, err := remotedisk.New("pool", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := tape.New(tape.Config{
		Name: "vault", Params: model.RemoteTape2000(), Store: memfs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hsm.New(hsm.Config{
		Sim: sim, Meta: metadb.New(), Pool: pool, Tape: lib,
		PoolCapacity: 10_000,
		Policy:       hsm.Policy{ColdAfter: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p := sim.NewProc("p")
	if err := eng.Put(p, "a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Put(p, "b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	p.Advance(2 * time.Hour)
	if err := eng.Tick(p); err != nil {
		t.Fatal(err)
	}

	h, _ := newHandlerMeta(t, WithCollectors(eng))
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		`msra_hsm_datasets{state="dual"} 2`,
		`msra_hsm_migrations_total 2`,
		`msra_hsm_pool_capacity_bytes 10000`,
		`msra_hsm_recalls_total 0`,
		`msra_hsm_gc_runs_total 0`,
		`msra_hsm_gc_stalls_total 0`,
		`msra_hsm_repacks_total 0`,
		`msra_hsm_reads_total{result="hit"} 0`,
		`msra_hsm_mounts_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "msra_hsm_pool_occupancy_bytes") ||
		!strings.Contains(body, "msra_hsm_recall_p95_seconds") {
		t.Errorf("gauge families missing:\n%s", body)
	}
}
