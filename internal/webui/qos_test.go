package webui

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/qos"
	"repro/internal/vtime"
)

// TestQoSMetrics: a handler with a scheduler attached exposes the
// msra_qos_* families on /metrics with real counter values — even
// without a trace.Metrics sink attached.
func TestQoSMetrics(t *testing.T) {
	sched, err := qos.New(qos.Config{
		Tenants:           map[string]int{"astro3d": 3, "viewer": 1},
		MaxInFlight:       1,
		TenantQueuedBytes: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	sim := vtime.NewVirtual()
	p := sim.NewProc("p")
	for i := 0; i < 3; i++ {
		if err := sched.Do(p, qos.Request{Tenant: "astro3d", Op: "write", Bytes: 10}, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Do(p, qos.Request{Tenant: "viewer", Op: "read", Bytes: 10}, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	// One shed request so the overload counter is non-zero: queue a
	// blocker on a paused scheduler, then blow the tenant budget.
	sched.Pause()
	unblock := make(chan error, 1)
	go func() {
		unblock <- sched.Do(p, qos.Request{Tenant: "viewer", Op: "write", Bytes: 60}, func() error { return nil })
	}()
	for sched.QueueDepth() == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	if err := sched.Do(p, qos.Request{Tenant: "viewer", Op: "write", Bytes: 60}, func() error { return nil }); err == nil {
		t.Fatal("want overload")
	}
	sched.Resume()
	if err := <-unblock; err != nil {
		t.Fatal(err)
	}

	h, _ := tracedHandler(t)
	WithCollectors(sched)(h)
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		`msra_qos_inflight 0`,
		`msra_qos_queue_depth{tenant="astro3d"} 0`,
		`msra_qos_granted_total{tenant="astro3d"} 3`,
		`msra_qos_granted_total{tenant="viewer"} 2`,
		`msra_qos_overload_total{tenant="viewer"} 1`,
		`msra_qos_tape_batches_total 0`,
		`msra_qos_tape_batch_abandoned_total 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "msra_qos_wait_seconds_total") ||
		!strings.Contains(body, "msra_qos_service_seconds_total") {
		t.Error("/metrics missing time-accounting families")
	}
	// The trace-derived families still render alongside.
	if !strings.Contains(body, "msra_native_calls_total") {
		t.Error("trace metrics families gone from /metrics with qos attached")
	}
}

// TestQoSMetricsWithoutTraceMetrics: the scheduler as the only
// collector is enough to turn /metrics on.
func TestQoSMetricsWithoutTraceMetrics(t *testing.T) {
	sched, err := qos.New(qos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	h, _ := newHandlerMeta(t, WithCollectors(sched))
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "msra_qos_inflight 0") {
		t.Errorf("qos families missing:\n%s", body)
	}
}
