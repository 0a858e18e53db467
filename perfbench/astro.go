package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/apps/astro3d"
	"repro/internal/apps/mse"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/remotedisk"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// astroScale is the Astro3D run: 64³ cells, 48 iterations, every
// dataset group dumped every 6 iterations, 8 ranks.
var astroScale = experiments.Scale{N: 64, MaxIter: 48, Freq: 6, Procs: 8}

// astroLocations sends temp and press to remote disk and vr_temp to
// local disk; every other dataset defaults to tape.
var astroLocations = map[string]core.Location{
	"temp": core.LocRemoteDisk, "press": core.LocRemoteDisk, "vr_temp": core.LocLocalDisk,
}

func astroParams() astro3d.Params {
	s := astroScale
	return astro3d.Params{
		Nx: s.N, Ny: s.N, Nz: s.N, MaxIter: s.MaxIter,
		AnalysisFreq: s.Freq, VizFreq: s.Freq, CheckpointFreq: s.Freq, Procs: s.Procs,
		Locations: astroLocations, DefaultLocation: core.LocRemoteTape,
	}
}

// astroOutcome is what one Astro3D + MSE run produced.
type astroOutcome struct {
	checksum uint64
	bytesOut int64
	steps    []int
	mse      []float64
	ioVirt   time.Duration // simulated I/O time: Astro3D's writes plus MSE's reads
	// stored fingerprints every file the run left on its storage
	// resources, by resource class and path below the run ID.
	stored map[string]uint64
}

// runAstro runs the producer, returns every device to idle (the
// consumer's clocks start at zero, as in the paper's figure 10 runs),
// then runs the consumer.
func runAstro(sys *core.System, id string, devices ...interface{ ResetClocks() }) (astroOutcome, error) {
	rep, err := astro3d.Run(sys, id, astroParams())
	if err != nil {
		return astroOutcome{}, fmt.Errorf("astro3d: %w", err)
	}
	for _, d := range devices {
		d.ResetClocks()
	}
	res, err := mse.Run(sys, id+"-mse", mse.Params{
		ProducerRun: id, Dataset: "temp", Iterations: astroScale.MaxIter, Procs: astroScale.Procs,
	})
	if err != nil {
		return astroOutcome{}, fmt.Errorf("mse: %w", err)
	}
	return astroOutcome{
		checksum: rep.Checksum, bytesOut: rep.BytesOut,
		steps: res.Steps, mse: res.MSE, ioVirt: rep.IOTime + res.IOTime,
	}, nil
}

// check compares a wire run against the in-process reference.
func (o astroOutcome) check(ref astroOutcome) error {
	switch {
	case o.checksum != ref.checksum:
		return fmt.Errorf("checksum %x, in-process run %x", o.checksum, ref.checksum)
	case o.bytesOut != ref.bytesOut:
		return fmt.Errorf("BytesOut %d, in-process run %d", o.bytesOut, ref.bytesOut)
	case !slices.Equal(o.steps, ref.steps) || !slices.Equal(o.mse, ref.mse):
		return fmt.Errorf("MSE %v at steps %v, in-process run %v at %v", o.mse, o.steps, ref.mse, ref.steps)
	case len(o.stored) != len(ref.stored):
		return fmt.Errorf("%d files stored, in-process run %d", len(o.stored), len(ref.stored))
	}
	for path, sum := range ref.stored {
		if o.stored[path] != sum {
			return fmt.Errorf("stored %s differs from the in-process run's", path)
		}
	}
	return nil
}

// storedFiles fingerprints every file the run id left on the backends,
// reading each back whole: the stored bytes are the run's real output,
// which Report.Checksum (the final field state) and the MSE maximum do
// not fully cover.
func storedFiles(id string, backends ...storage.Backend) (map[string]uint64, error) {
	p := vtime.NewVirtual().NewProc("readback")
	out := make(map[string]uint64)
	for _, be := range backends {
		sess, err := be.Connect(p)
		if err != nil {
			return nil, fmt.Errorf("read back %s: %w", be.Name(), err)
		}
		infos, err := sess.List(p, id+"/")
		for _, fi := range infos {
			if err != nil {
				break
			}
			var data []byte
			if data, err = storage.GetFile(p, sess, fi.Path); err == nil {
				h := fnv.New64a()
				h.Write(data)
				out[be.Kind().String()+":"+strings.TrimPrefix(fi.Path, id)] = h.Sum64()
			}
		}
		if cerr := sess.Close(p); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("read back %s: %w", be.Name(), err)
		}
	}
	return out, nil
}

// astroReference runs Astro3D and MSE on a purely in-process system
// with the same devices and no srbnet.
func astroReference() (astroOutcome, error) {
	local, err := localdisk.New(localResource, memfs.New())
	if err != nil {
		return astroOutcome{}, err
	}
	rdisk, err := remotedisk.New(diskResource, memfs.New())
	if err != nil {
		return astroOutcome{}, err
	}
	rtape, err := tape.New(tape.Config{Name: tapeResource, Params: model.RemoteTape2000(), Store: memfs.New()})
	if err != nil {
		return astroOutcome{}, err
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: vtime.NewVirtual(), Meta: metadb.New(),
		LocalDisk: local, RemoteDisk: rdisk, RemoteTape: rtape,
	})
	if err != nil {
		return astroOutcome{}, err
	}
	out, err := runAstro(sys, "reference", local, rdisk, rtape)
	if err != nil {
		return out, err
	}
	out.stored, err = storedFiles("reference", local, rdisk, rtape)
	return out, err
}

// astroPrediction evaluates eq. (2) for the run against the broker's
// PTool-populated database: Astro3D's writes plus MSE's reads of temp.
func astroPrediction(pdb *predict.DB) (write, read time.Duration, err error) {
	w, err := experiments.PredictAstro3D(pdb, astroScale, astroLocations, core.LocRemoteTape)
	if err != nil {
		return 0, 0, err
	}
	s := astroScale
	r, err := pdb.Predict(predict.RunReq{
		Iterations: s.MaxIter, Op: "read",
		Datasets: []predict.DatasetReq{{
			Name: "temp", AMode: "read", Dims: []int{s.N, s.N, s.N}, Etype: 4,
			Pattern: "B**", Location: storage.KindRemoteDisk.String(),
			Frequency: s.Freq, Procs: s.Procs,
		}},
	})
	if err != nil {
		return 0, 0, err
	}
	return w.Total, r.Total, nil
}

// astroRep is one repetition: a fresh stack, one Astro3D + MSE run
// through two srbnet clients (one connection each), and its checks.
type astroRep struct {
	setup   time.Duration
	wall    time.Duration
	out     astroOutcome
	pred    time.Duration   // eq. (2) prediction of ioVirt
	predErr float64         // |prediction − measured| / measured, in %
	calls   []time.Duration // client call latencies
	wal     wal.Stats       // client journal activity during the run
	proc    procDelta

	// Traced repetitions only.
	mounts   int64
	tapeVirt float64
	devVirt  float64
	qos      qosLayer
	grants   []grant
}

// astroMode selects how a repetition observes the run.
type astroMode int

const (
	astroTimed  astroMode = iota // client calls timed by a wrapper
	astroTraced                  // the stack traced, the run one app.run span
	astroBare                    // nothing wrapped: the reference for the wrappers
)

// astroOnce runs one repetition.  tr is required with astroTraced and
// ignored otherwise.  dir holds the client metadb journal.
func astroOnce(id, dir string, mode astroMode, tr *tracer) (rep astroRep, err error) {
	if mode != astroTraced {
		tr = nil
	}
	runtime.GC() // each set-up starts from the same heap
	t0 := time.Now()
	st, err := newStack(stackOptions{tr: tr})
	if err != nil {
		return rep, fmt.Errorf("assemble stack: %w", err)
	}
	var clients []*srbnet.Client
	var meta *metadb.DB
	defer func() {
		var errs []error
		for _, c := range clients {
			errs = append(errs, c.Close())
		}
		errs = append(errs, st.close())
		if meta != nil {
			errs = append(errs, meta.CloseJournal())
		}
		if cerr := errors.Join(errs...); err == nil && cerr != nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	if meta, err = metadb.OpenJournal(wal.Options{Dir: dir}); err != nil {
		return rep, fmt.Errorf("client journal: %w", err)
	}
	local, err := localdisk.New(localResource, memfs.New())
	if err != nil {
		return rep, err
	}
	var pr probe
	var lp *latencyProbe
	var sp *spanProbe
	switch mode {
	case astroTraced:
		sp = &spanProbe{tr: tr, layer: layerCall}
		pr = sp
	case astroTimed:
		lp = newLatencyProbe()
		pr = lp
	}
	sim := vtime.NewVirtual()
	dial := sim.NewProc("dial")
	backends := make(map[storage.Kind]storage.Backend)
	for _, c := range []struct {
		resource string
		kind     storage.Kind
	}{{diskResource, storage.KindRemoteDisk}, {tapeResource, storage.KindRemoteTape}} {
		cl := st.client("astro3d", c.resource, c.kind)
		clients = append(clients, cl)
		// Dial now so the run's first call does not pay the connect.
		sess, err := cl.Connect(dial)
		if err != nil {
			return rep, fmt.Errorf("connect %s: %w", c.resource, err)
		}
		if err := sess.Close(dial); err != nil {
			return rep, fmt.Errorf("connect %s: %w", c.resource, err)
		}
		backends[c.kind] = cl
		if pr != nil {
			backends[c.kind] = wrapBackend(cl, pr)
		}
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: sim, Meta: meta, LocalDisk: local,
		RemoteDisk: backends[storage.KindRemoteDisk], RemoteTape: backends[storage.KindRemoteTape],
	})
	if err != nil {
		return rep, err
	}
	rep.setup = time.Since(t0)

	wal0, _ := meta.JournalStats()
	snap := takeProcSnap()
	var root uint64
	var begin time.Duration
	if tr != nil {
		root = tr.newID()
		sp.setParent(root)
		st.begin(tr)
		begin = tr.now()
	}
	start := time.Now()
	rep.out, err = runAstro(sys, id, local, st.local, st.rdisk, st.rtape)
	rep.wall = time.Since(start)
	if tr != nil {
		tr.add(span{ID: root, Layer: layerApp, Start: begin, End: tr.now()})
		tr.on.Store(false)
		rep.grants = st.grants()
	}
	rep.proc = snap.to(takeProcSnap())
	if err != nil {
		return rep, err
	}
	wal1, _ := meta.JournalStats()
	rep.wal = wal.Stats{
		Appends: wal1.Appends - wal0.Appends, AppendBytes: wal1.AppendBytes - wal0.AppendBytes,
		Syncs: wal1.Syncs - wal0.Syncs,
	}
	if lp != nil {
		rep.calls = lp.take()
	}
	pw, prd, err := astroPrediction(st.pdb)
	if err != nil {
		return rep, fmt.Errorf("predict: %w", err)
	}
	rep.pred = pw + prd
	if m := rep.out.ioVirt.Seconds(); m > 0 {
		rep.predErr = 100 * math.Abs(rep.pred.Seconds()-m) / m
	}
	if tr != nil {
		rep.mounts, _, _ = st.rtape.Stats()
		rep.tapeVirt = st.virtSeconds(tapeResource)
		rep.devVirt = st.virtSeconds("")
		rep.qos = st.qosLayer()
	}
	rep.out.stored, err = storedFiles(id, local, clients[0], clients[1])
	return rep, err
}
