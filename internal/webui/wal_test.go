package webui

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metadb"
	"repro/internal/wal"
)

// TestWALMetrics: a journaled metadb as the only collector turns
// /metrics on and exports the msra_wal_* families with live journal
// counters.
func TestWALMetrics(t *testing.T) {
	fsys := faultfs.New()
	meta, err := metadb.OpenJournal(wal.Options{FS: fsys, Dir: "journal"})
	if err != nil {
		t.Fatal(err)
	}
	defer meta.CloseJournal()
	if err := meta.PutRun(nil, metadb.Run{ID: "r1", App: "a", User: "u", Iterations: 1, Procs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := meta.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	h, _ := newHandlerMeta(t, WithCollectors(meta))
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"msra_wal_appends_total 1",
		"msra_wal_fsyncs_total",
		"msra_wal_compactions_total 1",
		"msra_wal_segments 1",
		"msra_wal_replay_records 0",
		"msra_wal_torn_tail_bytes 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The checkpoint timestamp is a real recent Unix time.
	st, ok := meta.JournalStats()
	if !ok || time.Since(st.LastCheckpoint) > time.Minute {
		t.Fatalf("checkpoint time not recorded: %+v ok=%t", st, ok)
	}
	if !strings.Contains(body, "msra_wal_last_checkpoint_timestamp_seconds") {
		t.Error("/metrics missing checkpoint timestamp family")
	}
}

// TestWALMetricsAbsentWithoutOption: a journal-less handler neither
// serves wal families nor turns /metrics on by itself.
func TestWALMetricsAbsentWithoutOption(t *testing.T) {
	code, _ := get(t, newHandler(t), "/metrics")
	if code != http.StatusNotFound {
		t.Fatalf("/metrics without any source: status = %d, want 404", code)
	}
}

// TestWALMetricsNotJournaled: a non-journaled DB as collector reports
// cleanly (JournalStats returns ok=false) without emitting families.
func TestWALMetricsNotJournaled(t *testing.T) {
	meta := metadb.New()
	h, _ := newHandlerMeta(t, WithCollectors(meta))
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if strings.Contains(body, "msra_wal_") {
		t.Errorf("wal families emitted for a non-journaled DB:\n%s", body)
	}
}
