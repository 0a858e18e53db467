package workflow

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hsm"
	"repro/internal/metrics"
	"repro/internal/predict"
)

// Tier is one candidate storage class for provisioning, with the bytes
// the provisioner may claim on it.
type Tier struct {
	Class string
	Free  int64
}

// StagedDataset is one edge dataset the plan routes through the stage
// cache.
type StagedDataset struct {
	Producer, Dataset string
	// Home is the effective class the data is staged from (after any
	// intermediate placement).
	Home string
	// FirstConsumer is the topologically first reading stage; prefetch
	// is issued before it starts.
	FirstConsumer string
	Readers       int
	InstanceBytes int64
	Dumps         int
	WorkingSet    int64 // Dumps × InstanceBytes
	// CopyPerDump is the predicted whole-file stage-in time of one
	// instance (home read + cache write).
	CopyPerDump time.Duration
	// ConnSetup is the predicted session-setup cost of the staging
	// pipeline (home read connection + cache write connection), paid
	// once by the first copy wave.
	ConnSetup time.Duration
	// XferPerDump is the device-occupancy portion of one stage-in copy
	// — the size-dependent transfer term that concurrent copies
	// serialize on the home device (a tape cartridge lives in one
	// drive at a time), while the per-call constants overlap.
	XferPerDump time.Duration
}

// PrefetchItem is one instance to stage in before a consumer starts.
type PrefetchItem struct {
	Consumer string // stage the hint is issued for
	Producer string
	Dataset  string
	Iter     int
	Bytes    int64
	Copy     time.Duration
}

// StageBudget sizes one consumer stage's cache budget from its
// predicted working set.
type StageBudget struct {
	Stage      string
	WorkingSet int64
	Datasets   []string
}

// IntermediatePlacement relocates a stage-private dataset — one that
// only lives between two stages — from its declared steady-state
// location to the tier that minimizes eq. (1) cost over its remaining
// lifetime (one write pass plus one read pass, not archival residency).
type IntermediatePlacement struct {
	Dataset  string
	Producer string
	Consumer string
	From, To string
	Bytes    int64 // lifetime footprint: dumps × instance bytes
	// Cost/DefaultCost are the predicted lifetime I/O times on To and
	// on the declared location.
	Cost, DefaultCost time.Duration
}

// Plan is a provisioning decision for one DAG.
type Plan struct {
	CacheClass string
	// CacheBudget is the union working set of every staged dataset —
	// the byte budget a shared stage.Manager needs so the plan's hits
	// never thrash.
	CacheBudget int64
	// ExpectedReads is the largest per-instance read count the plan
	// anticipates, for stage.Config.ExpectedReads.
	ExpectedReads int

	Staged        []StagedDataset
	Budgets       []StageBudget
	Prefetch      []PrefetchItem
	Intermediates []IntermediatePlacement

	// PrefetchP95 is the 95th-percentile predicted per-instance
	// stage-in time across the prefetch schedule (hsm.Percentile).
	PrefetchP95 time.Duration
}

// Placed returns the placement for a (producer, dataset) pair, if any.
func (pl *Plan) Placed(producer, dataset string) (IntermediatePlacement, bool) {
	for _, ip := range pl.Intermediates {
		if ip.Producer == producer && ip.Dataset == dataset {
			return ip, true
		}
	}
	return IntermediatePlacement{}, false
}

// StagedFor returns the staged dataset entry, if any.
func (pl *Plan) StagedFor(producer, dataset string) (StagedDataset, bool) {
	for _, sd := range pl.Staged {
		if sd.Producer == producer && sd.Dataset == dataset {
			return sd, true
		}
	}
	return StagedDataset{}, false
}

// ItemsFor returns the prefetch items to issue before the stage starts.
func (pl *Plan) ItemsFor(stage string) []PrefetchItem {
	var out []PrefetchItem
	for _, it := range pl.Prefetch {
		if it.Consumer == stage {
			out = append(out, it)
		}
	}
	return out
}

// Provision derives a plan from the DAG and the calibrated predictor:
//
//  1. Stage-private intermediates (datasets on exactly one edge) are
//     placed on the tier minimizing predicted write+read cost over
//     their lifetime, capacity permitting.
//  2. Each remaining edge dataset is staged through the cache tier when
//     eq. (1) holds across its readers: the summed per-dump read
//     savings must exceed the per-dump stage-in copy.
//  3. Staged datasets become per-stage budgets (predicted working
//     sets) and a prefetch schedule issued before their first consumer.
func (g *DAG) Provision(pdb *predict.DB, cacheClass string, tiers []Tier) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if pdb == nil {
		return nil, fmt.Errorf("workflow: provisioning needs a predictor")
	}
	if strings.TrimSpace(cacheClass) == "" {
		return nil, fmt.Errorf("workflow: provisioning needs a cache class")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	topoPos := make(map[string]int, len(order))
	for i, name := range order {
		topoPos[name] = i
	}
	plan := &Plan{CacheClass: cacheClass, ExpectedReads: 1}

	// Edges carrying each (producer, dataset) pair, consumers sorted by
	// topological position.
	type flow struct {
		producer, dataset string
		consumers         []string
	}
	var flows []flow
	flowIdx := make(map[string]int)
	for _, e := range g.edges {
		for _, name := range e.Datasets {
			key := e.From + "/" + name
			i, ok := flowIdx[key]
			if !ok {
				i = len(flows)
				flowIdx[key] = i
				flows = append(flows, flow{producer: e.From, dataset: name})
			}
			flows[i].consumers = append(flows[i].consumers, e.To)
		}
	}
	for i := range flows {
		cs := flows[i].consumers
		for a := 1; a < len(cs); a++ {
			for b := a; b > 0 && topoPos[cs[b]] < topoPos[cs[b-1]]; b-- {
				cs[b], cs[b-1] = cs[b-1], cs[b]
			}
		}
	}

	free := make(map[string]int64, len(tiers))
	tierOrder := make([]string, 0, len(tiers))
	for _, t := range tiers {
		if _, dup := free[t.Class]; !dup {
			tierOrder = append(tierOrder, t.Class)
		}
		free[t.Class] += t.Free
	}

	// 1. Lifetime-aware placement for stage-private intermediates.
	lifetimeCost := func(wd, rd predict.DatasetReq, prodIters, consIters int, class string) (time.Duration, error) {
		w := wd
		w.Location = class
		r := rd
		r.Location = class
		wp, err := pdb.PredictDataset(w, prodIters)
		if err != nil {
			return 0, err
		}
		rp, err := pdb.PredictDataset(r, consIters)
		if err != nil {
			return 0, err
		}
		return wp.VirtualTime + rp.VirtualTime, nil
	}
	for _, f := range flows {
		if len(f.consumers) != 1 {
			continue // lives beyond a single stage pair
		}
		prod, _ := g.Stage(f.producer)
		cons, _ := g.Stage(f.consumers[0])
		wd, _ := stageDataset(prod, f.dataset)
		rd, _ := stageDataset(cons, f.dataset)
		footprint := int64(dumps(wd, prod.Iterations)) * instanceBytes(wd)
		def, err := lifetimeCost(wd, rd, prod.Iterations, cons.Iterations, wd.Location)
		if err != nil {
			return nil, err
		}
		best, bestCost := "", def
		for _, class := range tierOrder {
			if class == wd.Location || free[class] < footprint {
				continue
			}
			c, err := lifetimeCost(wd, rd, prod.Iterations, cons.Iterations, class)
			if err != nil {
				return nil, err
			}
			if c < bestCost {
				best, bestCost = class, c
			}
		}
		if best == "" {
			continue
		}
		free[best] -= footprint
		plan.Intermediates = append(plan.Intermediates, IntermediatePlacement{
			Dataset: f.dataset, Producer: f.producer, Consumer: f.consumers[0],
			From: wd.Location, To: best, Bytes: footprint,
			Cost: bestCost, DefaultCost: def,
		})
	}

	// 2. Eq. (1) staging decision per remaining flow, against the
	// effective (post-placement) home.
	budgets := make(map[string]*StageBudget)
	var copies []time.Duration
	for _, f := range flows {
		prod, _ := g.Stage(f.producer)
		wd, _ := stageDataset(prod, f.dataset)
		home := wd.Location
		if ip, ok := plan.Placed(f.producer, f.dataset); ok {
			home = ip.To
		}
		if strings.EqualFold(home, cacheClass) || disabled(wd) {
			continue
		}
		size := instanceBytes(wd)
		tGet, err := pdb.WholeFile(home, "read", size)
		if err != nil {
			return nil, err
		}
		tPut, err := pdb.WholeFile(cacheClass, "write", size)
		if err != nil {
			return nil, err
		}
		tCopy := tGet + tPut
		// Device-occupancy estimate: the size-dependent part of one
		// native read on home (Unit is per-call constants plus the
		// bandwidth term; subtracting a 1-byte call isolates the
		// latter).
		uFull, err := pdb.Unit(home, "read", size)
		if err != nil {
			return nil, err
		}
		uOne, err := pdb.Unit(home, "read", 1)
		if err != nil {
			return nil, err
		}
		tXfer := uFull - uOne
		if tXfer < 0 {
			tXfer = 0
		}
		var benefit float64
		for _, c := range f.consumers {
			cons, _ := g.Stage(c)
			rd, _ := stageDataset(cons, f.dataset)
			homeReq := rd
			homeReq.Location = home
			cacheReq := rd
			cacheReq.Location = cacheClass
			hp, err := pdb.PredictDataset(homeReq, 0) // one dump
			if err != nil {
				return nil, err
			}
			cp, err := pdb.PredictDataset(cacheReq, 0)
			if err != nil {
				return nil, err
			}
			benefit += (hp.VirtualTime - cp.VirtualTime).Seconds()
		}
		if benefit <= tCopy {
			continue
		}
		nd := dumps(wd, prod.Iterations)
		sd := StagedDataset{
			Producer: f.producer, Dataset: f.dataset, Home: home,
			FirstConsumer: f.consumers[0], Readers: len(f.consumers),
			InstanceBytes: size, Dumps: nd, WorkingSet: int64(nd) * size,
			CopyPerDump: time.Duration(tCopy * float64(time.Second)),
			ConnSetup: time.Duration((pdb.ConnCost(home, "read") +
				pdb.ConnCost(cacheClass, "write")) * float64(time.Second)),
			XferPerDump: time.Duration(tXfer * float64(time.Second)),
		}
		plan.Staged = append(plan.Staged, sd)
		plan.CacheBudget += sd.WorkingSet
		if sd.Readers > plan.ExpectedReads {
			plan.ExpectedReads = sd.Readers
		}
		freq := wd.Frequency
		if freq <= 0 {
			freq = 1
		}
		for iter := 0; iter <= prod.Iterations; iter += freq {
			plan.Prefetch = append(plan.Prefetch, PrefetchItem{
				Consumer: sd.FirstConsumer, Producer: f.producer, Dataset: f.dataset,
				Iter: iter, Bytes: size, Copy: sd.CopyPerDump,
			})
			copies = append(copies, sd.CopyPerDump)
		}
		for _, c := range f.consumers {
			b := budgets[c]
			if b == nil {
				b = &StageBudget{Stage: c}
				budgets[c] = b
			}
			b.WorkingSet += sd.WorkingSet
			b.Datasets = append(b.Datasets, f.dataset)
		}
	}
	for _, name := range order {
		if b := budgets[name]; b != nil {
			plan.Budgets = append(plan.Budgets, *b)
		}
	}
	plan.PrefetchP95 = hsm.Percentile(copies, 95)
	return plan, nil
}

// PredictMakespanProvisioned prices every stage under the plan — staged
// reads at cache speed plus the stage-in copies charged to the first
// consumer, placed intermediates at their lifetime-optimal tier — and
// composes the schedule at the given overlap.  Comparable with
// PredictMakespan of the unprovisioned DAG.
func (g *DAG) PredictMakespanProvisioned(pdb *predict.DB, plan *Plan, overlap float64) (Prediction, error) {
	if plan == nil {
		return Prediction{}, fmt.Errorf("workflow: nil plan")
	}
	if err := g.Validate(); err != nil {
		return Prediction{}, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return Prediction{}, err
	}
	// producerOf maps dataset name → producing stage along each edge
	// into a given consumer.
	producerOf := func(consumer, dataset string) (string, bool) {
		for _, e := range g.edges {
			if e.To != consumer {
				continue
			}
			for _, n := range e.Datasets {
				if n == dataset {
					return e.From, true
				}
			}
		}
		return "", false
	}
	dur := make(map[string]time.Duration, len(order))
	runs := make(map[string]predict.RunPrediction, len(order))
	for _, name := range order {
		s, _ := g.Stage(name)
		reqs := make([]predict.DatasetReq, 0, len(s.Datasets))
		var extra time.Duration
		for _, d := range s.Datasets {
			req := d
			if disabled(d) {
				reqs = append(reqs, req)
				continue
			}
			op, err := predict.NormalizeAMode(d.AMode)
			if err != nil {
				return Prediction{}, fmt.Errorf("workflow: stage %q dataset %q: %w", name, d.Name, err)
			}
			if op == "write" {
				if ip, ok := plan.Placed(name, d.Name); ok {
					req.Location = ip.To
				}
			} else if prod, ok := producerOf(name, d.Name); ok {
				if sd, staged := plan.StagedFor(prod, d.Name); staged {
					req.Location = plan.CacheClass
					if sd.FirstConsumer == name {
						// Prefetch hints for every dump are issued
						// together when the consumer starts and run on
						// parallel prefetch ranks, so the per-call
						// constants of the copies overlap — but their
						// transfer terms still serialize on the home
						// device (one cartridge, one drive).  The last
						// copy of the wave therefore lands after one
						// full copy latency, the session setup, and
						// the remaining dumps' device occupancy.
						extra += sd.ConnSetup + sd.CopyPerDump +
							time.Duration(sd.Dumps-1)*sd.XferPerDump
					}
				} else if ip, placed := plan.Placed(prod, d.Name); placed {
					req.Location = ip.To
				}
			}
			reqs = append(reqs, req)
		}
		rp, err := pdb.Predict(predict.RunReq{Iterations: s.Iterations, Datasets: reqs})
		if err != nil {
			return Prediction{}, fmt.Errorf("workflow: stage %q: %w", name, err)
		}
		dur[name] = rp.Total + extra
		runs[name] = rp
	}
	ms, err := g.Compose(dur, overlap)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{MakespanResult: ms, Runs: runs}, nil
}

// Collector exports a DAG's predicted schedule as the msra_workflow_*
// families: per-stage start, duration and critical-path flag plus the
// makespan at Overlap, and with a Plan the cache budget, per-stage
// working sets, the prefetch summary and the provisioned makespan.  The
// prediction is re-evaluated from PDB at every scrape, so calibration
// updates flow through.
type Collector struct {
	DAG     *DAG
	PDB     *predict.DB
	Overlap float64
	Plan    *Plan // optional
}

// Collect implements metrics.Collector.  A DAG that cannot be predicted
// reports no families, only the error.
func (c Collector) Collect() ([]metrics.Family, error) {
	pred, err := c.DAG.PredictMakespan(c.PDB, c.Overlap)
	if err != nil {
		return nil, fmt.Errorf("msra_workflow_* unavailable: %w", err)
	}
	start := metrics.Gauge("msra_workflow_stage_start_seconds", "Predicted stage start within the composed schedule.")
	dur := metrics.Gauge("msra_workflow_stage_duration_seconds", "Predicted stage I/O duration (eq. 2).")
	crit := metrics.Gauge("msra_workflow_stage_critical", "Whether the stage lies on the predicted critical path.")
	for _, s := range pred.Stages {
		start.Samples = append(start.Samples, metrics.Float(s.Start.Seconds(), "stage", s.Name))
		dur.Samples = append(dur.Samples, metrics.Float(s.Duration.Seconds(), "stage", s.Name))
		crit.Samples = append(crit.Samples, metrics.Bool(s.Critical, "stage", s.Name))
	}
	fams := []metrics.Family{
		metrics.Gauge("msra_workflow_overlap", "Producer/consumer overlap the schedule is composed at.", metrics.Float(c.Overlap)),
		start, dur, crit,
		metrics.Gauge("msra_workflow_makespan_seconds", "Predicted critical-path makespan.", metrics.Float(pred.Makespan.Seconds())),
	}
	plan := c.Plan
	if plan == nil {
		return fams, nil
	}
	ws := metrics.Gauge("msra_workflow_stage_working_set_bytes", "Predicted per-stage staged working set.")
	for _, sb := range plan.Budgets {
		ws.Samples = append(ws.Samples, metrics.Int(sb.WorkingSet, "stage", sb.Stage))
	}
	fams = append(fams,
		metrics.Gauge("msra_workflow_cache_budget_bytes", "Stage-cache byte budget the plan provisions.", metrics.Int(plan.CacheBudget)),
		ws,
		metrics.Gauge("msra_workflow_prefetch_items", "DAG-edge prefetch instances the plan schedules.", metrics.Int(len(plan.Prefetch))),
		metrics.Gauge("msra_workflow_prefetch_copy_p95_seconds", "95th-percentile predicted per-instance stage-in time.", metrics.Float(plan.PrefetchP95.Seconds())),
		metrics.Gauge("msra_workflow_placements", "Stage-private intermediates the plan relocates.", metrics.Int(len(plan.Intermediates))))
	if prov, err := c.DAG.PredictMakespanProvisioned(c.PDB, plan, c.Overlap); err == nil {
		fams = append(fams, metrics.Gauge("msra_workflow_makespan_provisioned_seconds", "Predicted makespan under the provisioning plan.", metrics.Float(prov.Makespan.Seconds())))
	}
	return fams, nil
}

// PlanString renders the plan for the CLI.
func (pl *Plan) PlanString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache %s: budget %d B, expected reads %d, prefetch items %d (p95 copy %.3f s)\n",
		pl.CacheClass, pl.CacheBudget, pl.ExpectedReads, len(pl.Prefetch), pl.PrefetchP95.Seconds())
	for _, sd := range pl.Staged {
		fmt.Fprintf(&b, "  stage-in %s/%s from %s before %q: %d dumps x %d B (%d readers)\n",
			sd.Producer, sd.Dataset, sd.Home, sd.FirstConsumer, sd.Dumps, sd.InstanceBytes, sd.Readers)
	}
	for _, bd := range pl.Budgets {
		fmt.Fprintf(&b, "  budget %-10s %d B (%s)\n", bd.Stage, bd.WorkingSet, strings.Join(bd.Datasets, ", "))
	}
	for _, ip := range pl.Intermediates {
		fmt.Fprintf(&b, "  place %s/%s on %s instead of %s (lifetime %.3f s vs %.3f s, %d B)\n",
			ip.Producer, ip.Dataset, ip.To, ip.From, ip.Cost.Seconds(), ip.DefaultCost.Seconds(), ip.Bytes)
	}
	return b.String()
}
