// Package webui is the reproduction's analog of the paper's IJ-GUI:
// "a Java graphical environment that can help the user submit her job,
// carry out visualization, perform data analysis and so on … It is
// very easy for the user to change parameters directly in the Java
// window to get other prediction results" (figure 11).
//
// Handler serves an HTML form of the Astro3D parameter set and renders
// the per-dataset prediction table for any placement the user picks —
// the same interaction loop as the paper's prediction window, over
// net/http instead of Java.
package webui

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/astro3d"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Handler renders the prediction window.
type Handler struct {
	pdb        *predict.DB
	tmpl       *template.Template
	metrics    *trace.Metrics
	calib      *calib.Engine
	collectors []metrics.Collector
}

// Option configures optional handler features.
type Option func(*Handler)

// WithMetrics attaches a live trace metrics aggregation: the handler
// gains a Prometheus-style text endpoint at /metrics and, combined
// with WithCalibration, measured-vs-predicted columns in the
// prediction table.
func WithMetrics(m *trace.Metrics) Option {
	return func(h *Handler) { h.metrics = m }
}

// WithCalibration attaches a calibration engine so the prediction
// table carries measured times, error percentages and drift flags, and
// /metrics exports per-resource residual ratios.
func WithCalibration(e *calib.Engine) Option {
	return func(h *Handler) { h.calib = e }
}

// WithCollectors attaches metric sources to /metrics, rendered in the
// given order ahead of the trace and calibration families: a
// *qos.Scheduler (msra_qos_*), a journaled *metadb.DB (msra_wal_*), an
// *hsm.Engine (msra_hsm_*) or a workflow.Collector (msra_workflow_*).
// Attaching any collector turns /metrics on.
func WithCollectors(cs ...metrics.Collector) Option {
	return func(h *Handler) { h.collectors = append(h.collectors, cs...) }
}

// New returns a handler over a measured predictor database.
func New(pdb *predict.DB, opts ...Option) *Handler {
	h := &Handler{
		pdb:  pdb,
		tmpl: template.Must(template.New("page").Parse(pageTemplate)),
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// row is one prediction table line, optionally annotated with the
// measured side of the calibration join.
type row struct {
	predict.DatasetPrediction
	// Measured is VirtualTime rescaled by the resource's observed
	// measured/predicted ratio ("-" when the run gave no evidence).
	Measured string
	// ErrPct is the resource's signed prediction error percentage.
	ErrPct string
	// Drift marks residuals outside the calibration band.
	Drift bool
}

// pageData feeds the template.
type pageData struct {
	N, Iter, Freq, Procs int
	TempLoc, DefaultLoc  string
	Locations            []string
	Rows                 []row
	HaveMeasured         bool
	Total                string
	Suggested            string
	Error                string
}

// locations offered by the form, in the paper's vocabulary.
var locations = []string{"LOCALDISK", "REMOTEDISK", "SDSCHPSS", "DISABLE"}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/metrics" {
		h.serveMetrics(w, r)
		return
	}
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	data := pageData{
		N: 128, Iter: 120, Freq: 6, Procs: 8,
		TempLoc: "REMOTEDISK", DefaultLoc: "SDSCHPSS",
		Locations: locations,
	}
	q := r.URL.Query()
	// Validation problems accumulate so the user sees every bad
	// parameter at once, not just whichever was parsed last.
	var errs []string
	getInt := func(key string, dst *int) {
		if v := q.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				errs = append(errs, fmt.Sprintf("bad %s: %q", key, v))
				return
			}
			*dst = n
		}
	}
	getInt("n", &data.N)
	getInt("iter", &data.Iter)
	getInt("freq", &data.Freq)
	getInt("procs", &data.Procs)
	if v := q.Get("temp"); v != "" {
		data.TempLoc = v
	}
	if v := q.Get("default"); v != "" {
		data.DefaultLoc = v
	}
	data.Error = strings.Join(errs, "; ")
	if data.Error == "" {
		if err := h.predictInto(&data); err != nil {
			data.Error = err.Error()
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := h.tmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *Handler) predictInto(data *pageData) error {
	tempLoc, err := core.ParseLocation(data.TempLoc)
	if err != nil {
		return err
	}
	defLoc, err := core.ParseLocation(data.DefaultLoc)
	if err != nil {
		return err
	}
	if data.N < data.Procs {
		return fmt.Errorf("problem size %d smaller than %d procs", data.N, data.Procs)
	}
	scale := experiments.Scale{N: data.N, MaxIter: data.Iter, Freq: data.Freq, Procs: data.Procs}
	locs := map[string]core.Location{"temp": tempLoc}
	rp, err := experiments.PredictAstro3D(h.pdb, scale, locs, defLoc)
	if err != nil {
		return err
	}
	residuals := h.residualsByResource("write")
	for _, d := range rp.Datasets {
		rw := row{DatasetPrediction: d, Measured: "-", ErrPct: "-"}
		if res, ok := residuals[d.Resource]; ok && d.VirtualTime > 0 {
			// The observed measured/predicted ratio for this resource
			// class rescales the row's prediction to its measured-rate
			// equivalent.
			rw.Measured = fmt.Sprintf("%.4f", d.VirtualTime.Seconds()*res.Ratio)
			rw.ErrPct = fmt.Sprintf("%+.1f%%", res.ErrPct())
			rw.Drift = res.Drift
			data.HaveMeasured = true
		}
		data.Rows = append(data.Rows, rw)
	}
	data.Total = fmt.Sprintf("%.2f", rp.Total.Seconds())
	if suggest, err := sched.SuggestMaxRunTime(rp.Total, 0, 0.15); err == nil {
		data.Suggested = suggest.Round(time.Second).String()
	}
	// Guard: the form's dataset names must stay in sync with astro3d.
	if len(rp.Datasets) != len(astro3d.AllNames()) {
		return fmt.Errorf("internal: %d rows for %d datasets", len(rp.Datasets), len(astro3d.AllNames()))
	}
	return nil
}

// residualsByResource joins the live metrics against the calibration
// engine and indexes the residuals by resource class for the given op.
// Empty when metrics or calibration are not attached.
func (h *Handler) residualsByResource(op string) map[string]calib.Residual {
	if h.metrics == nil || h.calib == nil {
		return nil
	}
	out := make(map[string]calib.Residual)
	for _, r := range h.calib.Residuals(h.metrics.Snapshot()) {
		if r.Op == op {
			out[r.Resource] = r
		}
	}
	return out
}

// serveMetrics renders every attached collector, then the trace
// metrics and their calibration join, in the Prometheus text exposition
// format; 404 when nothing is attached.
func (h *Handler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	cs := h.collectors
	if h.metrics != nil {
		// Capped so concurrent scrapes never append into h.collectors.
		cs = append(cs[:len(cs):len(cs)], h.metrics)
		if h.calib != nil {
			cs = append(cs, h.calib.Collector(h.metrics))
		}
	}
	if len(cs) == 0 {
		http.Error(w, "metrics not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = metrics.Write(w, cs...) // fails only when the client has gone away
}

const pageTemplate = `<!DOCTYPE html>
<html><head><title>astro3d — I/O performance prediction</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-top: 1em; }
td, th { border: 1px solid #999; padding: 2px 10px; text-align: right; }
th, td:first-child { text-align: left; }
.err { color: #b00; }
</style></head>
<body>
<h1>astro3d — I/O performance prediction</h1>
<form method="get" action="/">
  problem size <input name="n" value="{{.N}}" size="4">³
  iterations <input name="iter" value="{{.Iter}}" size="4">
  frequency <input name="freq" value="{{.Freq}}" size="3">
  procs <input name="procs" value="{{.Procs}}" size="3">
  temp → <select name="temp">{{range .Locations}}<option{{if eq . $.TempLoc}} selected{{end}}>{{.}}</option>{{end}}</select>
  others → <select name="default">{{range .Locations}}<option{{if eq . $.DefaultLoc}} selected{{end}}>{{.}}</option>{{end}}</select>
  <input type="submit" value="Predict">
</form>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
{{if .Rows}}
<table>
<tr><th>NAME</th><th>EXPECTEDLOC</th><th>DUMPS</th><th>n(j)</th><th>UNIT (bytes)</th><th>VIRTUALTIME (s)</th>{{if .HaveMeasured}}<th>MEASURED (s)</th><th>ERR%</th>{{end}}</tr>
{{range .Rows}}
<tr><td>{{.Name}}</td><td>{{.Resource}}</td><td>{{.Dumps}}</td><td>{{.NativeCalls}}</td><td>{{.UnitBytes}}</td><td>{{printf "%.4f" .VirtualTime.Seconds}}</td>{{if $.HaveMeasured}}<td>{{.Measured}}</td><td{{if .Drift}} class="err"{{end}}>{{.ErrPct}}{{if .Drift}} (drift){{end}}</td>{{end}}</tr>
{{end}}
<tr><th>TOTAL</th><td></td><td></td><td></td><td></td><th>{{.Total}}</th>{{if .HaveMeasured}}<td></td><td></td>{{end}}</tr>
</table>
<p>suggested batch max run time (I/O only, +15%): {{.Suggested}}</p>
{{end}}
</body></html>`
