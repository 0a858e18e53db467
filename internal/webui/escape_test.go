package webui

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/qos"
	"repro/internal/vtime"
	"repro/internal/workflow"
)

// checkExposition fails on any sample line whose label values use an
// escape the text exposition format does not define: inside a quoted
// label value only \\, \" and \n may follow a backslash.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		open := strings.IndexByte(line, '{')
		if open < 0 {
			continue
		}
		i := open + 1
		for line[i] != '}' {
			eq := strings.Index(line[i:], `="`)
			if eq < 0 {
				t.Fatalf("malformed labels: %q", line)
			}
			i += eq + 2
			for line[i] != '"' {
				if line[i] == '\\' {
					i++
					if c := line[i]; c != '\\' && c != '"' && c != 'n' {
						t.Fatalf("undefined escape \\%c in %q", c, line)
					}
				}
				i++
			}
			i++
			if line[i] == ',' {
				i++
			}
		}
	}
}

// TestMetricsLabelEscaping: a tab in a registered tenant name and a
// control byte, quote and backslash in a stage name from a DAG file
// reach the scrape escaped the way the exposition format defines —
// only \\, \" and \n — and every other byte verbatim.  Go's %q escapes
// (\t, \x01) would make the whole scrape unparsable.
func TestMetricsLabelEscaping(t *testing.T) {
	tenant := "astro\t3d"
	sched, err := qos.New(qos.Config{Tenants: map[string]int{tenant: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	p := vtime.NewVirtual().NewProc("p")
	if err := sched.Do(p, qos.Request{Tenant: tenant, Op: "read", Bytes: 1}, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	stage := "mse\x01\"v2\\"
	g, err := workflow.Parse(strings.ReplaceAll(`stage astro3d iters=12
dataset astro3d temp mode=create dims=16x16x16 etype=4 pat=B** loc=remotetape freq=6 procs=4
stage STAGE iters=12
dataset STAGE temp mode=read dims=16x16x16 etype=4 pat=B** loc=remotetape freq=6 procs=4
edge astro3d STAGE temp
`, "STAGE", stage))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newHandlerMeta(t)
	WithCollectors(sched, workflow.Collector{DAG: g, PDB: h.pdb, Overlap: 0.5})(h)
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"msra_qos_granted_total{tenant=\"astro\t3d\"} 1\n",
		"msra_workflow_stage_critical{stage=\"mse\x01\\\"v2\\\\\"} 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	checkExposition(t, body)
}
