package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkNames reads the metrics BENCHMARK.json promises, as
// "name unit", or skips when the benchmark runs outside its
// repository.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// Each workload, run for about a second in each mode, passes its output
// checks and reports exactly the metrics BENCHMARK.json lists, with
// their units, the end-to-end ones never zero.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := benchmarkNames(t)
	for _, name := range []string{"wire_small", "journaled_mix", "astro3d_wire"} {
		for _, traced := range []bool{false, true} {
			mode := "trace0"
			want := e2e
			if traced {
				mode, want = "trace1", layers
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				env := newEnvRecord(1, dir)
				if name == "journaled_mix" && env.JournalFS == "tmpfs" {
					t.Skipf("%s refuses tmpfs", name)
				}
				o := runOptions{
					workload: name, seed: 1, seconds: time.Second, traced: traced,
					work: dir, spans: filepath.Join(dir, "spans.csv"),
				}
				res, err := runWorkload(o, env)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%d of %d failed: %v", res.failed, res.attempted, res.checkErrs)
				}
				var got []string
				for _, m := range res.metrics {
					got = append(got, m.name+" "+m.unit)
					if !traced && !(m.value > 0) {
						t.Errorf("end-to-end %s = %v", m.name, m.value)
					}
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics %v, BENCHMARK.json lists %v", got, want)
				}
			})
		}
	}
}
