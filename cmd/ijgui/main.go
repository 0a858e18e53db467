// Command ijgui serves the reproduction's analog of the paper's IJ-GUI
// prediction window (figure 11): a web form of the Astro3D parameter
// set that renders per-dataset predicted virtual times for any
// placement, so the user can explore placements before running.
//
// Usage:
//
//	ijgui [-addr 127.0.0.1:8642] [-db perf.json | -journal-dir dir]
//
// With -journal-dir, the performance database is replayed from an srbd
// write-ahead journal (stop the daemon first — the journal is single-
// writer) and /metrics serves the journaled metadb.DB's collector, the
// msra_wal_* families.  Measured on the fly, /metrics serves the trace
// metrics (msra_native_*) and their calibration join (msra_calib_*).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"

	"repro/internal/calib"
	"repro/internal/experiments"
	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/wal"
	"repro/internal/webui"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ijgui: ")
	addr := flag.String("addr", "127.0.0.1:8642", "HTTP listen address")
	dbPath := flag.String("db", "", "performance database JSON (from ptool -save); measured on the fly if empty")
	journalDir := flag.String("journal-dir", "", "replay the performance database from a write-ahead journal (see srbd -journal)")
	flag.Parse()
	if *dbPath != "" && *journalDir != "" {
		log.Fatal("-db and -journal-dir are mutually exclusive")
	}

	var pdb *predict.DB
	var opts []webui.Option
	if *journalDir != "" {
		meta, err := metadb.OpenJournal(wal.Options{Dir: *journalDir})
		if err != nil {
			log.Fatalf("journal replay failed: %v (inspect with srbd -fsck -journal-dir %s)", err, *journalDir)
		}
		pdb = predict.NewDB(meta)
		opts = append(opts, webui.WithCollectors(meta))
	} else if *dbPath != "" {
		meta := metadb.New()
		if err := meta.Load(*dbPath); err != nil {
			log.Fatal(err)
		}
		pdb = predict.NewDB(meta)
	} else {
		// Measured on the fly: the environment is traced, so the window
		// also serves /metrics and, once the process has recorded real
		// I/O, measured-vs-predicted columns with drift flags.
		env, err := experiments.NewTracedEnv()
		if err != nil {
			log.Fatal(err)
		}
		pdb = env.PDB
		eng := calib.New(calib.Config{Meta: env.Meta, Classes: env.Classes()})
		opts = append(opts, webui.WithMetrics(env.Metrics), webui.WithCalibration(eng))
	}
	fmt.Printf("ijgui prediction window on http://%s/\n", *addr)
	log.Fatal(http.ListenAndServe(*addr, webui.New(pdb, opts...)))
}
