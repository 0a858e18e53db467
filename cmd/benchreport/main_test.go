package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestUsageCommentMatchesNames pins the doc comment's -exp list to
// experiments.Names().  The flag help is built from Names() at runtime;
// the comment cannot be, so this test is what keeps it from drifting.
func TestUsageCommentMatchesNames(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\[-exp ([a-z0-9|]+)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go doc comment has no [-exp ...] usage line")
	}
	want := "all|" + strings.Join(experiments.Names(), "|")
	if got := string(m[1]); got != want {
		t.Fatalf("doc comment -exp list out of sync with experiments.Names():\n  comment: %s\n  names:   %s", got, want)
	}
}

// TestCommittedBenchHeadlines is the regression gate over the
// machine-readable results committed at the repo root: each
// BENCH_<exp>.json must exist and its headline scalars must still
// clear the same thresholds the experiment's own acceptance gate
// enforces.  Regenerate a file with
//
//	go run ./cmd/benchreport -scale bench -exp <exp> -json .
//
// after a deliberate change; a silent regression fails here.
func TestCommittedBenchHeadlines(t *testing.T) {
	gates := map[string][]headlineGate{
		"srbnet": {
			{"speedup_x", gt, 1},
		},
		"qos": {
			{"isolation_x", gt, 1},
			{"mount_win_x", gt, 1},
			{"batches", gt, 0},
		},
		"crash": {
			{"points", gt, 0},
			{"fired", gt, 0},
			{"violations", eq, 0},
		},
		"workflow": {
			{"overlap_levels", gt, 2},
			{"max_err", lt, 0.15},
			{"min_speedup", gt, 1},
			{"prefetch_items", gt, 0},
			{"placements", gt, 0},
			{"cache_hit_rate", gt, 0.9},
		},
		"cluster": {
			{"acked_mutations", gt, 0},
			{"lost_acked", eq, 0},
			{"dump_mismatches", eq, 0},
			{"failover_retries", gt, 0},
			{"sharded_speedup_x", gt, 2},
			{"single_over_direct_x", gt, 0},
		},
		"hsm": {
			{"mount_win_x", gt, 1},
			{"migrations", gt, 0},
			{"recalls", gt, 0},
			{"gc_purged", gt, 0},
			{"repacks", gt, 0},
			{"mismatches", eq, 0},
			{"crash_points", gt, 0},
			{"crash_violations", eq, 0},
		},
	}
	for exp, checks := range gates {
		t.Run(exp, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+exp+".json"))
			if err != nil {
				t.Fatalf("committed bench result missing: %v", err)
			}
			var doc struct {
				Experiment string             `json:"experiment"`
				Headline   map[string]float64 `json:"headline"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("BENCH_%s.json: %v", exp, err)
			}
			if doc.Experiment != exp {
				t.Fatalf("BENCH_%s.json claims experiment %q", exp, doc.Experiment)
			}
			for _, g := range checks {
				got, ok := doc.Headline[g.key]
				if !ok {
					t.Errorf("headline key %q missing", g.key)
					continue
				}
				if !g.ok(got) {
					t.Errorf("headline %s = %g, want %s %g", g.key, got, g.opName(), g.bound)
				}
			}
			// The workflow provisioning win is relative: at every
			// committed overlap level the provisioned makespan must
			// beat the unprovisioned one.
			if exp == "workflow" {
				for k, v := range doc.Headline {
					if !strings.HasPrefix(k, "makespan_o") {
						continue
					}
					prov, ok := doc.Headline["makespan_prov_"+strings.TrimPrefix(k, "makespan_")]
					if !ok || !(prov > 0 && prov < v) {
						t.Errorf("provisioned makespan %g s not under unprovisioned %g s (%s)", prov, v, k)
					}
				}
			}
			// The cluster budget invariant is relative: the survivors'
			// leases must sum to exactly the configured global budget.
			if exp == "cluster" {
				if sb, qb := doc.Headline["survivor_budget_bytes"], doc.Headline["queue_budget_bytes"]; !(qb > 0 && sb == qb) {
					t.Errorf("survivor leases %g B do not re-cover the %g B budget", sb, qb)
				}
			}
			// The hsm recall deadline is relative, not absolute: compare
			// the two committed scalars against each other.
			if exp == "hsm" {
				if p95, bound := doc.Headline["recall_p95_s"], doc.Headline["recall_bound_s"]; !(p95 > 0 && p95 <= bound) {
					t.Errorf("recall p95 %g s outside (0, bound %g s]", p95, bound)
				}
				if base, h := doc.Headline["hit_rate_baseline"], doc.Headline["hit_rate_hsm"]; h <= base {
					t.Errorf("hsm hit rate %g not above baseline %g", h, base)
				}
			}
		})
	}
}

type headlineOp int

const (
	gt headlineOp = iota
	eq
	lt
)

type headlineGate struct {
	key   string
	op    headlineOp
	bound float64
}

func (g headlineGate) ok(v float64) bool {
	switch g.op {
	case gt:
		return v > g.bound
	case lt:
		return v < g.bound
	}
	return v == g.bound
}

func (g headlineGate) opName() string {
	switch g.op {
	case gt:
		return ">"
	case lt:
		return "<"
	}
	return "=="
}

// TestNamesAreDispatched asserts every published experiment name is
// actually handled by run(): an unknown name must fall through with no
// output, so run() against a closed pipe would mask a missing case.
// Instead we scan run()'s source for the literal name.
func TestNamesAreDispatched(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(string(src), `"`+name+`"`) {
			t.Errorf("experiment %q from experiments.Names() not dispatched in main.go", name)
		}
	}
}
