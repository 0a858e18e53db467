package metrics

import (
	"errors"
	"strings"
	"testing"
)

type collectorFunc func() ([]Family, error)

func (f collectorFunc) Collect() ([]Family, error) { return f() }

func TestWriteFormat(t *testing.T) {
	tenth := 0.1 // a variable, so 0.1+0.2 is computed in float64
	max := Float(2.5, "backend", "r")
	max.Suffix = "_max"
	c := collectorFunc(func() ([]Family, error) {
		return []Family{
			Gauge("up", "Plain gauge.", Int(uint64(1)<<40)),
			Counter("bytes_total", "Bytes, by tenant.",
				Int(8388608, "tenant", "a\tb"),
				Int(-3, "tenant", `q"uo\te`, "op", "line\nbreak")),
			{Name: "cost_seconds", Help: `Help with \ and` + "\nnewline.", Type: "summary", Samples: []Sample{
				Float(1e-7, "backend", "r", "quantile", "0.5"),
				Float(tenth+0.2, "backend", "r", "quantile", "0.95"),
				max,
			}},
			Gauge("flags", "Bools and whole floats.", Bool(true, "x", "1"), Bool(false, "x", "0"), Float(3)),
			Counter("empty_total", "No samples yet."),
		}, nil
	})
	failing := collectorFunc(func() ([]Family, error) {
		return nil, errors.New("source down:\nretry later")
	})
	var b strings.Builder
	if err := Write(&b, c, failing); err != nil {
		t.Fatal(err)
	}
	want := "# HELP up Plain gauge.\n" +
		"# TYPE up gauge\n" +
		"up 1099511627776\n" +
		"# HELP bytes_total Bytes, by tenant.\n" +
		"# TYPE bytes_total counter\n" +
		"bytes_total{tenant=\"a\tb\"} 8388608\n" +
		`bytes_total{tenant="q\"uo\\te",op="line\nbreak"} -3` + "\n" +
		`# HELP cost_seconds Help with \\ and\nnewline.` + "\n" +
		"# TYPE cost_seconds summary\n" +
		`cost_seconds{backend="r",quantile="0.5"} 1e-07` + "\n" +
		`cost_seconds{backend="r",quantile="0.95"} 0.30000000000000004` + "\n" +
		`cost_seconds_max{backend="r"} 2.5` + "\n" +
		"# HELP flags Bools and whole floats.\n" +
		"# TYPE flags gauge\n" +
		`flags{x="1"} 1` + "\n" +
		`flags{x="0"} 0` + "\n" +
		"flags 3\n" +
		"# HELP empty_total No samples yet.\n" +
		"# TYPE empty_total counter\n" +
		"# source down: retry later\n"
	if got := b.String(); got != want {
		t.Fatalf("got:\n%q\nwant:\n%q", got, want)
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("closed") }

func TestWriteReportsWriterError(t *testing.T) {
	c := collectorFunc(func() ([]Family, error) { return []Family{Gauge("g", "G.", Int(1))}, nil })
	if err := Write(errWriter{}, c); err == nil {
		t.Fatal("write error swallowed")
	}
}
