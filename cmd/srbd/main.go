// Command srbd runs the SRB-like middleware daemon: it assembles the
// three storage resources (backed by real directories when -root is
// given, in-memory otherwise), registers them with a broker, and serves
// the broker over TCP.  Remote applications reach the resources with
// msra.NewSRBClient.
//
// Because live clients share real wall time, the daemon runs the
// simulation in scaled mode: device costs are slept at -timescale of
// real time (default 1/1000, so a 25 s tape mount takes 25 ms).
//
// The data plane runs through a multi-tenant qos scheduler: deficit
// round robin over predictor-priced cost per user, cartridge-batched
// tape reads, and bounded queue budgets that shed excess load with a
// retry-after hint.  -max-inflight 0 disables the scheduler entirely
// (the FIFO-free ablation: every opcode executes on arrival).  Users
// absent from -tenants are scheduled at weight 1.
//
// Usage:
//
//	srbd [-addr :5544] [-root /var/srb] [-user shen -secret nwu] [-timescale 0.001]
//	     [-tenants astro3d:3,viewer:1] [-max-inflight 8] [-queue-bytes 268435456]
//	     [-journal] [-journal-dir DIR] [-hsm] [-hsm-policy cold=48h,...] [-hsm-capacity N]
//	     [-workflow DAG-FILE] [-workflow-overlap 0.5]
//	     [-cluster N] [-peers a:1,b:2,...] [-shards S]
//
// Example: give the simulation account 3× the share of the viewer and
// cap the backlog at 64 MiB:
//
//	srbd -user astro3d -secret x -tenants astro3d:3,viewer:1 -queue-bytes 67108864
//
// With -journal, the broker's meta-data (the performance database the
// admission pricer consults) is persisted through a write-ahead journal
// in -journal-dir (default <root>/journal): every mutation is fsynced
// before it is acknowledged, startup replays the journal, and a clean
// shutdown checkpoints it.  If replay finds corruption the daemon
// refuses to serve and exits non-zero; `srbd -fsck -journal-dir DIR`
// verifies and prints the journal state without serving.
//
// With -hsm, a lifecycle engine manages the remote-disk pool in front
// of the tape library: a background sweep at the policy's scan
// interval migrates cold datasets to tape (batched through the qos
// staging-cartridge lane when the scheduler is on), GCs the pool
// against the -hsm-policy watermarks, and repacks fragmented
// cartridges.  -hsm-capacity sets the pool bytes the watermarks divide
// and -hsm-policy tunes the engine (see hsm.ParsePolicy), e.g.
//
//	srbd -hsm -hsm-capacity 1073741824 -hsm-policy cold=48h,scan=1h,high=0.85,low=0.6
//
// Combined with -journal the lifecycle rows ride the same write-ahead
// journal as the rest of the broker state, and startup maps any
// in-flight migration or recall interrupted by a crash back to its
// safe state.
//
// With -cluster N the daemon serves N brokers in one process as one
// logical broker: each broker listens on its own address (-peers, or
// -addr's port incremented), owns a hash-sharded slice of the
// namespace (-shards, default N), and replicates the shared meta-data
// through a leader-leased log.  Clients built with srbnet.WithCluster
// route by shard and follow redirects; the -queue-bytes admission
// budget becomes cluster-wide, leased to brokers in proportion to the
// shards they own.  -hsm requires -journal (lifecycle state must be
// crash-recoverable), and -cluster is incompatible with both.
//
// With -workflow, the daemon prices a whole post-processing chain
// against its performance database before serving: the DAG file (in
// the workflow stage/dataset/edge syntax) is validated, the composed
// makespan at -workflow-overlap and the provisioning plan — stage
// cache budgets, DAG-edge prefetch schedule, intermediate placements —
// are logged, so the operator sees the capacity a submitted chain will
// need.  A bad DAG fails startup.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/dbstore"
	"repro/internal/hsm"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/osfs"
	"repro/internal/predict"
	"repro/internal/ptool"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
	"repro/internal/wal"
	"repro/internal/workflow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srbd: ")
	addr := flag.String("addr", "127.0.0.1:5544", "TCP listen address")
	root := flag.String("root", "", "directory for on-disk stores (in-memory if empty)")
	user := flag.String("user", "shen", "account name")
	secret := flag.String("secret", "nwu", "account secret")
	timescale := flag.Float64("timescale", 0.001, "wall seconds slept per simulated second")
	tenantsFlag := flag.String("tenants", "", "per-tenant DRR weights, name:weight,... (unknown tenants get weight 1)")
	maxInflight := flag.Int("max-inflight", 8, "concurrently executing requests; 0 disables the scheduler")
	queueBytes := flag.Int64("queue-bytes", 0, "global queued-byte budget before requests are shed; 0 unlimited")
	journal := flag.Bool("journal", false, "persist broker meta-data through a write-ahead journal")
	journalDir := flag.String("journal-dir", "", "journal directory (default <root>/journal)")
	fsck := flag.Bool("fsck", false, "verify and print journal state, then exit without serving")
	hsmOn := flag.Bool("hsm", false, "run the disk-pool lifecycle engine (migration, GC, repack)")
	hsmPolicy := flag.String("hsm-policy", "", "lifecycle policy, key=value,... (cold, scan, high, low, repack, batch)")
	hsmCapacity := flag.Int64("hsm-capacity", 1<<30, "disk-pool byte capacity the lifecycle watermarks divide")
	workflowFile := flag.String("workflow", "", "price a workflow DAG file against the performance database at startup")
	workflowOverlap := flag.Float64("workflow-overlap", 0, "producer/consumer overlap for -workflow (0 staged .. 1 pipelined)")
	clusterN := flag.Int("cluster", 0, "run N brokers as one logical clustered broker (0 = single broker)")
	peersFlag := flag.String("peers", "", "comma-separated listen addresses, one per cluster broker (default: -addr's port, incremented)")
	shardsFlag := flag.Int("shards", 0, "cluster namespace shard count (default: number of brokers)")
	flag.Parse()

	if *journalDir == "" && *root != "" {
		*journalDir = filepath.Join(*root, "journal")
	}
	if *fsck {
		if *journalDir == "" {
			log.Fatal("-fsck needs -journal-dir (or -root)")
		}
		report := wal.Check(nil, *journalDir)
		fmt.Print(report.String())
		if !report.OK() {
			os.Exit(1)
		}
		return
	}
	if *journal && *journalDir == "" {
		log.Fatal("-journal needs -journal-dir (or -root)")
	}
	if *hsmOn && !*journal {
		log.Fatal("-hsm needs -journal: lifecycle migration and recall markers must be crash-recoverable, or an interrupted sweep silently strands datasets (add -journal, and -journal-dir or -root)")
	}
	if *clusterN < 0 {
		log.Fatalf("-cluster must be >= 0, got %d", *clusterN)
	}
	if *clusterN == 0 && (*peersFlag != "" || *shardsFlag != 0) {
		log.Fatal("-peers and -shards need -cluster")
	}
	if *clusterN > 0 && (*journal || *hsmOn) {
		log.Fatal("-cluster replicates broker meta-data through the cluster log; it is incompatible with -journal and -hsm")
	}
	if *clusterN > 0 && *workflowFile != "" {
		log.Fatal("-workflow is not supported with -cluster")
	}

	tenants, err := qos.ParseTenants(*tenantsFlag)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := hsm.ParsePolicy(*hsmPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if *hsmCapacity <= 0 {
		log.Fatalf("-hsm-capacity must be > 0, got %d", *hsmCapacity)
	}
	if *maxInflight < 0 {
		log.Fatalf("-max-inflight must be >= 0, got %d", *maxInflight)
	}
	if *queueBytes < 0 {
		log.Fatalf("-queue-bytes must be >= 0, got %d", *queueBytes)
	}

	if *clusterN > 0 {
		peers, err := clusterPeers(*addr, *peersFlag, *clusterN)
		if err != nil {
			log.Fatal(err)
		}
		serveCluster(clusterConfig{
			n: *clusterN, shards: *shardsFlag, peers: peers,
			root: *root, user: *user, secret: *secret,
			timescale: *timescale, tenants: tenants,
			maxInflight: *maxInflight, queueBytes: *queueBytes,
		})
		return
	}

	store := func(sub string) storage.Store {
		if *root == "" {
			return memfs.New()
		}
		fs, err := osfs.New(filepath.Join(*root, sub))
		if err != nil {
			log.Fatal(err)
		}
		return fs
	}

	broker := srb.NewBroker()
	local, err := localdisk.New("argonne-ssa", store("local"))
	if err != nil {
		log.Fatal(err)
	}
	rdisk, err := remotedisk.New("sdsc-disk", store("rdisk"))
	if err != nil {
		log.Fatal(err)
	}
	rtape, err := tape.New(tape.Config{Name: "sdsc-hpss", Params: model.RemoteTape2000(), Store: store("tape")})
	if err != nil {
		log.Fatal(err)
	}
	localdb, err := dbstore.New("nwu-postgres", store("db"))
	if err != nil {
		log.Fatal(err)
	}
	for _, be := range []storage.Backend{local, rdisk, rtape, localdb} {
		if err := broker.Register(be); err != nil {
			log.Fatal(err)
		}
	}
	broker.AddUser(*user, *secret)

	// The broker's meta-data store: journal-backed when -journal is
	// given (replay on startup, checkpoint on clean shutdown), purely
	// in-memory otherwise.
	var meta *metadb.DB
	if *journal {
		m, err := metadb.OpenJournal(wal.Options{Dir: *journalDir})
		if err != nil {
			// The distinct replay-failure line the operator (and the
			// crash-smoke CI job) greps for.
			log.Printf("FATAL: journal replay failed: %v (inspect with srbd -fsck -journal-dir %s)", err, *journalDir)
			os.Exit(2)
		}
		meta = m
		st, _ := meta.JournalStats()
		log.Printf("journal %s replayed: %d records, %d bytes in %s (torn tail %d bytes)",
			*journalDir, st.ReplayRecords, st.ReplayBytes, st.ReplayDuration, st.TornTailBytes)
	} else {
		meta = metadb.New()
	}

	sim := vtime.NewScaled(*timescale)
	var opts []srbnet.ServerOption
	var sched *qos.Scheduler
	if *maxInflight > 0 {
		// Populate a performance database the way PTool populates the
		// MCAT, so admission prices requests by eq. (2) predicted service
		// time rather than raw byte counts.  Measurement runs on its own
		// virtual clock (no wall sleeps) and removes its probe files.  A
		// journal replayed from a previous run already holds the sweep;
		// re-measuring would just rewrite the same rows.
		if len(meta.Constants(nil)) == 0 {
			if _, err := ptool.MeasureAll(vtime.NewVirtual(), meta, ptool.Config{Repeats: 1}, local, rdisk, rtape); err != nil {
				log.Fatal(err)
			}
			if err := meta.Checkpoint(); err != nil {
				log.Fatal(err)
			}
		}
		// The sweep advanced the shared device clocks; return every
		// device to idle or the first client pays the probes' queue wait.
		local.ResetClocks()
		rdisk.ResetClocks()
		rtape.ResetClocks()
		sched, err = qos.New(qos.Config{
			Tenants:        tenants,
			MaxInFlight:    *maxInflight,
			MaxQueuedBytes: *queueBytes,
			Price:          qos.PredictPricer(predict.NewDB(meta)),
			Tape:           rtape,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, srbnet.WithScheduler(sched))
	}

	// The lifecycle engine shares the daemon's scaled time domain, its
	// meta-data store (journaled when -journal is on) and, when the
	// scheduler runs, the qos staging-cartridge write lane.
	var eng *hsm.Engine
	hsmStop := make(chan struct{})
	var hsmDone chan struct{}
	if *hsmOn {
		cfg := hsm.Config{
			Sim: sim, Meta: meta, Pool: rdisk, Tape: rtape,
			PoolCapacity: *hsmCapacity, Policy: policy, QoS: sched,
		}
		if sched != nil {
			// The ptool sweep above populated meta, so predictions can
			// price GC victim scoring and recall staging.
			cfg.PDB = predict.NewDB(meta)
		}
		eng, err = hsm.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// A crash may have left migration or recall markers behind;
		// map them back to their safe states before serving.
		fixed, err := eng.Recover()
		if err != nil {
			log.Fatal(err)
		}
		if fixed > 0 {
			log.Printf("hsm: recovered %d in-flight lifecycle rows", fixed)
		}
		// The sweep loop self-paces: each Advance sleeps the scaled
		// wall equivalent of one scan interval, then the engine ticks.
		hsmDone = make(chan struct{})
		go func() {
			defer close(hsmDone)
			p := sim.NewProc("hsm-sweep")
			for {
				select {
				case <-hsmStop:
					return
				default:
				}
				p.Advance(eng.Policy().ScanInterval)
				if err := eng.Tick(p); err != nil {
					log.Printf("hsm: sweep: %v", err)
				}
			}
		}()
	}

	if *workflowFile != "" {
		// Capacity planning before the daemon serves: price the chain
		// against the same performance database admission uses.
		text, err := os.ReadFile(*workflowFile)
		if err != nil {
			log.Fatal(err)
		}
		g, err := workflow.Parse(string(text))
		if err != nil {
			log.Fatal(err)
		}
		if len(meta.Constants(nil)) == 0 {
			if _, err := ptool.MeasureAll(vtime.NewVirtual(), meta, ptool.Config{Repeats: 1}, local, rdisk, rtape); err != nil {
				log.Fatal(err)
			}
			local.ResetClocks()
			rdisk.ResetClocks()
			rtape.ResetClocks()
		}
		pdb := predict.NewDB(meta)
		pred, err := g.PredictMakespan(pdb, *workflowOverlap)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("workflow %s: predicted makespan %.3f s at overlap %.2f (critical path %s)",
			*workflowFile, pred.Makespan.Seconds(), *workflowOverlap,
			strings.Join(pred.CriticalPath, " -> "))
		plan, err := g.Provision(pdb, local.Kind().String(), []workflow.Tier{
			{Class: local.Kind().String(), Free: 1 << 31},
			{Class: rdisk.Kind().String(), Free: 1 << 31},
		})
		if err != nil {
			log.Fatal(err)
		}
		prov, err := g.PredictMakespanProvisioned(pdb, plan, *workflowOverlap)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("workflow %s: provisioned makespan %.3f s (cache budget %d B, %d prefetch items, %d placements)",
			*workflowFile, prov.Makespan.Seconds(), plan.CacheBudget, len(plan.Prefetch), len(plan.Intermediates))
	}

	srv, err := srbnet.Serve(*addr, broker, sim, opts...)
	if err != nil {
		log.Fatal(err)
	}
	mode := "unscheduled"
	if sched != nil {
		mode = fmt.Sprintf("qos max-inflight %d, tenants %q", *maxInflight, qos.FormatTenants(tenants))
	}
	if meta.Journaled() {
		mode += fmt.Sprintf(", journal %s", *journalDir)
	}
	if eng != nil {
		mode += fmt.Sprintf(", hsm %s capacity %d", hsm.FormatPolicy(eng.Policy()), *hsmCapacity)
	}
	fmt.Printf("srbd listening on %s (resources: %v, timescale %g, %s)\n",
		srv.Addr(), broker.Resources(), *timescale, mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	// Stop the lifecycle sweep before the scheduler so no migration
	// batch is submitted to a closing scheduler.
	if eng != nil {
		close(hsmStop)
		<-hsmDone
		eng.Close()
	}
	// Close the scheduler first: queued requests fail out, so the
	// server's handler drain cannot wait on them.
	if sched != nil {
		sched.Close()
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	// Clean shutdown compacts the journal so the next startup replays a
	// snapshot instead of the whole mutation history.
	if meta.Journaled() {
		if err := meta.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		if err := meta.CloseJournal(); err != nil {
			log.Fatal(err)
		}
		log.Printf("journal checkpointed")
	}
}
