package webui

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/workflow"
)

// TestWorkflowMetrics: a workflow.Collector alone turns /metrics on and
// the msra_workflow_* families carry the composed schedule; attaching a
// plan adds the provisioning summary and the provisioned makespan.
func TestWorkflowMetrics(t *testing.T) {
	g := workflow.Pipeline(16, 12, 6, 4)
	h, _ := newHandlerMeta(t)
	WithCollectors(workflow.Collector{DAG: g, PDB: h.pdb, Overlap: 0.5})(h)
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"msra_workflow_overlap 0.5",
		`msra_workflow_stage_start_seconds{stage="astro3d"} 0`,
		`msra_workflow_stage_duration_seconds{stage="mse"}`,
		`msra_workflow_stage_critical{stage="astro3d"} 1`,
		"msra_workflow_makespan_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(body, "msra_workflow_cache_budget_bytes") {
		t.Error("plan families present without a plan attached")
	}

	// With a provisioning plan the export gains the budget, prefetch
	// and placement families.
	h2, _ := newHandlerMeta(t)
	plan, err := g.Provision(h2.pdb, "localdisk", []workflow.Tier{
		{Class: "localdisk", Free: 1 << 31},
		{Class: "remotedisk", Free: 1 << 31},
	})
	if err != nil {
		t.Fatal(err)
	}
	h3, _ := newHandlerMeta(t)
	WithCollectors(workflow.Collector{DAG: g, PDB: h3.pdb, Overlap: 0.5, Plan: plan})(h3)
	code, body = get(t, h3, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"msra_workflow_cache_budget_bytes",
		`msra_workflow_stage_working_set_bytes{stage="mse"}`,
		"msra_workflow_prefetch_items 3",
		"msra_workflow_prefetch_copy_p95_seconds",
		"msra_workflow_placements 2",
		"msra_workflow_makespan_provisioned_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("plan metrics missing %q", want)
		}
	}
}
