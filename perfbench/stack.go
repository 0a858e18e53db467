package main

import (
	"errors"
	"time"

	"repro/internal/dbstore"
	"repro/internal/device"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/ptool"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// The broker's resources and accounts, as srbd registers them.
const (
	localResource = "argonne-ssa"
	diskResource  = "sdsc-disk"
	tapeResource  = "sdsc-hpss"
	dbResource    = "nwu-postgres"
	secret        = "bench"

	// maxInflight is srbd's default -max-inflight.
	maxInflight = 8
)

// tenantWeights is srbd's documented example: the simulation account
// gets 3× the viewer's share.
var tenantWeights = map[string]int{"astro3d": 3, "viewer": 1}

// stackOptions selects how the broker stack is assembled.
type stackOptions struct {
	// journalDir, when set, opens the broker's metadb through a
	// write-ahead journal there (srbd -journal); otherwise it is in
	// memory.
	journalDir string
	// tr, when set, traces the stack from outside: the pricer and the
	// two remote resources are registered behind timing wrappers, the
	// qos scheduler records its grant events, and the devices record
	// their simulated costs.
	tr *tracer
}

// stack is srbd assembled in-process the way cmd/srbd wires it: a
// broker over the local disk, the sdsc-disk remote-disk array, the
// sdsc-hpss tape library and the local database, a PTool-populated
// metadb pricing qos admission by eq. (2), and the srbnet v3 server on
// loopback running on a purely virtual clock.
type stack struct {
	local, rdisk, localdb *device.Backend
	rtape                 *tape.Library
	meta                  *metadb.DB
	pdb                   *predict.DB
	sched                 *qos.Scheduler
	srv                   *srbnet.Server

	// Traced stacks only: qos grant events and device native calls.
	qtrace *trace.Recorder
	dtrace *trace.Recorder
	dmet   *trace.Metrics
}

func newStack(o stackOptions) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	var ropts []remotedisk.Option
	if o.tr != nil {
		// Raw device events are only folded into the metrics; a small
		// window keeps memory flat.
		st.dtrace = trace.New(1 << 10)
		st.dmet = trace.NewMetrics()
		st.dtrace.SetMetrics(st.dmet)
		// Every grant of a traced phase is kept: link pairs each with
		// its device call.  begin resets it.
		st.qtrace = trace.New(0)
		ropts = append(ropts, remotedisk.WithTrace(st.dtrace))
	}
	if st.local, err = localdisk.New(localResource, memfs.New()); err != nil {
		return st, err
	}
	if st.rdisk, err = remotedisk.New(diskResource, memfs.New(), ropts...); err != nil {
		return st, err
	}
	if st.rtape, err = tape.New(tape.Config{
		Name: tapeResource, Params: model.RemoteTape2000(), Store: memfs.New(), Trace: st.dtrace,
	}); err != nil {
		return st, err
	}
	if st.localdb, err = dbstore.New(dbResource, memfs.New()); err != nil {
		return st, err
	}
	if o.journalDir != "" {
		if st.meta, err = metadb.OpenJournal(wal.Options{Dir: o.journalDir}); err != nil {
			return st, err
		}
	} else {
		st.meta = metadb.New()
	}
	// PTool populates the performance database on its own virtual
	// clock, then every device returns to idle, as in srbd.
	if _, err = ptool.MeasureAll(vtime.NewVirtual(), st.meta, ptool.Config{Repeats: 1}, st.local, st.rdisk, st.rtape); err != nil {
		return st, err
	}
	if err = st.meta.Checkpoint(); err != nil {
		return st, err
	}
	st.local.ResetClocks()
	st.rdisk.ResetClocks()
	st.rtape.ResetClocks()
	st.dtrace.Reset()
	st.dmet.Reset()

	st.pdb = predict.NewDB(st.meta)
	price := qos.PredictPricer(st.pdb)
	var disk, tapeBE storage.Backend = st.rdisk, st.rtape
	if o.tr != nil {
		price = timedPricer(&spanProbe{tr: o.tr, layer: layerPrice}, price)
		dev := &spanProbe{tr: o.tr, layer: layerDevice}
		disk, tapeBE = wrapBackend(st.rdisk, dev), wrapBackend(st.rtape, dev)
	}
	broker := srb.NewBroker()
	for _, be := range []storage.Backend{st.local, disk, tapeBE, st.localdb} {
		if err = broker.Register(be); err != nil {
			return st, err
		}
	}
	for user := range tenantWeights {
		broker.AddUser(user, secret)
	}
	// The batch lane keeps the real library: a wrapper would hide the
	// cartridge layout qos batches by.
	if st.sched, err = qos.New(qos.Config{
		Tenants:     tenantWeights,
		MaxInFlight: maxInflight,
		Price:       price,
		Tape:        st.rtape,
		Trace:       st.qtrace,
	}); err != nil {
		return st, err
	}
	if st.srv, err = srbnet.Serve("127.0.0.1:0", broker, vtime.NewVirtual(), srbnet.WithScheduler(st.sched)); err != nil {
		return st, err
	}
	st.srv.SetLogf(func(string, ...any) {})
	return st, nil
}

// client returns an srbnet client of one tenant for one resource, on a
// single pooled connection.
func (st *stack) client(user, resource string, kind storage.Kind) *srbnet.Client {
	return srbnet.NewClient(st.srv.Addr(), user, secret, resource, kind, srbnet.WithPoolSize(1))
}

// close stops the scheduler (queued requests fail out), then the
// server, then closes the journal.
func (st *stack) close() error {
	var errs []error
	if st.sched != nil {
		st.sched.Close()
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Close())
	}
	if st.meta != nil && st.meta.Journaled() {
		errs = append(errs, st.meta.CloseJournal())
	}
	return errors.Join(errs...)
}

// begin starts a traced phase: grant events and span recording start
// afresh.
func (st *stack) begin(tr *tracer) {
	st.qtrace.Reset()
	tr.on.Store(true)
}

// grants returns the phase's qos grant events for link.
func (st *stack) grants() []grant {
	var out []grant
	for _, e := range st.qtrace.Events() {
		if e.Op == trace.OpQueueGrant {
			out = append(out, grant{path: e.Path, at: e.At, wait: e.Cost})
		}
	}
	return out
}

// qosLayer summarizes the scheduler over a traced phase.
type qosLayer struct {
	waitP50, waitP99 float64 // µs, from grant events
	maxDepth         int
	overloads        int64
	shareRatio       float64 // granted cost astro3d/viewer; 0 with one tenant
}

func (st *stack) qosLayer() qosLayer {
	var q qosLayer
	var waits []float64
	for _, g := range st.grants() {
		waits = append(waits, usOf(g.wait))
	}
	if len(waits) > 0 {
		s := sortedCopy(waits)
		q.waitP50, q.waitP99 = median(s), percentile(s, 99)
	}
	stats := st.sched.Stats()
	q.overloads = stats.Overloads
	cost := make(map[string]float64)
	for _, t := range stats.Tenants {
		q.maxDepth = max(q.maxDepth, t.MaxDepth)
		cost[t.Tenant] = t.GrantedCost
	}
	if cost["viewer"] > 0 {
		q.shareRatio = cost["astro3d"] / cost["viewer"]
	}
	return q
}

// virtSeconds sums the simulated cost the devices charged, for one
// backend or (empty name) all of them.
func (st *stack) virtSeconds(backend string) float64 {
	var total time.Duration
	for _, s := range st.dmet.Snapshot() {
		if backend == "" || s.Backend == backend {
			total += s.Cost
		}
	}
	return total.Seconds()
}
