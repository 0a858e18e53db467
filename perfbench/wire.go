package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metadb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// wireConfig selects one of the two wire workloads.
type wireConfig struct {
	// journaled opens the broker's metadb through the write-ahead
	// journal, fsynced before every acknowledgement.
	journaled bool
	// writers is the number of closed-loop calibration writers
	// committing metadb mutations beside the wire traffic.
	writers int
	// think is each writer's pause between an acknowledgement and its
	// next commit.
	think time.Duration
}

const (
	ranksPerTenant = 8
	blockBytes     = 4 << 10
	fileBytes      = 256 << 10
	fileBlocks     = fileBytes / blockBytes

	// Every replaceEvery-th calibration commit replaces the writer's
	// curve, so the samples list (which every pricing read scans)
	// stays a few rows long however long the run.
	replaceEvery = 4
)

// wireTenants are the two closed-loop tenants, in client order.
var wireTenants = []string{"astro3d", "viewer"}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fillBlock writes the expected content of one block: a function of
// the seed, the rank, the block and its write generation only.
func fillBlock(dst []byte, seed int64, rank uint64, block int, gen uint32) {
	x := mix(mix(mix(uint64(seed))^rank) ^ uint64(block)<<32 ^ uint64(gen))
	for i := 0; i+8 <= len(dst); i += 8 {
		x = mix(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// wireRank is one closed-loop rank: it owns one 256 KiB file on
// sdsc-disk and remembers each block's write generation, so every read
// can be checked against the bytes it must return.
type wireRank struct {
	key  uint64
	proc *vtime.Proc
	h    storage.Handle
	path string
	gen  [fileBlocks]uint32
	rng  *rand.Rand
	buf  []byte
	want []byte

	// calls holds every call's latency; counts the calls by the window
	// they completed in, the last entry taking those that completed
	// after the phase ended.
	calls  hist
	counts []int64
	failed int64
	err    error
}

func (r *wireRank) observe(start, end, phaseStart, width time.Duration) {
	r.calls.add(end - start)
	r.counts[min(int((end-phaseStart)/width), len(r.counts)-1)]++
}

// wireStack is the broker stack plus the two tenants' clients, each
// with one connection, and their ranks' open files.
type wireStack struct {
	cfg      wireConfig
	seed     int64
	st       *stack
	clients  []*srbnet.Client
	sessions []storage.Session
	setup    *vtime.Proc
	ranks    []*wireRank
}

// setupWire assembles the stack, connects both tenants and writes
// generation 0 of every rank's file.  dir holds the journal.
func setupWire(cfg wireConfig, seed int64, dir string, windows int, tr *tracer) (w *wireStack, err error) {
	w = &wireStack{cfg: cfg, seed: seed}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	opts := stackOptions{tr: tr}
	if cfg.journaled {
		opts.journalDir = dir
	}
	if w.st, err = newStack(opts); err != nil {
		return w, fmt.Errorf("assemble stack: %w", err)
	}
	sim := vtime.NewVirtual()
	w.setup = sim.NewProc("setup")
	for ti, tenant := range wireTenants {
		c := w.st.client(tenant, diskResource, storage.KindRemoteDisk)
		w.clients = append(w.clients, c)
		sess, err := c.Connect(w.setup)
		if err != nil {
			return w, fmt.Errorf("connect %s: %w", tenant, err)
		}
		w.sessions = append(w.sessions, sess)
		for i := 0; i < ranksPerTenant; i++ {
			r := &wireRank{
				key:    uint64(ti*ranksPerTenant + i),
				proc:   sim.NewProc(fmt.Sprintf("%s-rank%d", tenant, i)),
				path:   fmt.Sprintf("bench/%s/rank%d", tenant, i),
				buf:    make([]byte, blockBytes),
				want:   make([]byte, blockBytes),
				counts: make([]int64, windows+1),
			}
			r.rng = rand.New(rand.NewPCG(uint64(seed), r.key))
			if r.h, err = sess.Open(r.proc, r.path, storage.ModeCreate); err != nil {
				return w, fmt.Errorf("open %s: %w", r.path, err)
			}
			w.ranks = append(w.ranks, r)
			file := make([]byte, fileBytes)
			for b := 0; b < fileBlocks; b++ {
				fillBlock(file[b*blockBytes:(b+1)*blockBytes], seed, r.key, b, 0)
			}
			if _, err := r.h.WriteAt(r.proc, file, 0); err != nil {
				return w, fmt.Errorf("populate %s: %w", r.path, err)
			}
		}
	}
	return w, nil
}

// wirePhase is what one timed phase measured.
type wirePhase struct {
	wall      time.Duration
	width     time.Duration // of one window
	counts    []int64       // wire calls by completion window
	calls     hist          // every wire call
	commits   hist          // every acknowledged calibration commit
	attempted int64
	failed    int64
	heapMiB   float64
	proc      procDelta
	acked     []int // per writer, how many commits were acknowledged (numbers 0..n-1)
	walDelta  wal.Stats
	firstErr  error
}

// run drives the closed loop for d, split into as many windows as the
// ranks were set up with: every rank does 4 KiB reads and writes,
// 50/50, at seeded blocks of its own file, and each calibration writer
// commits AddSample/ReplaceSamples, pausing cfg.think after each
// acknowledgement.  With tr set, every call is recorded as spans under
// a per-rank root.
func (w *wireStack) run(d time.Duration, tr *tracer) wirePhase {
	var ph wirePhase
	st0, _ := w.st.meta.JournalStats()
	runtime.GC() // start from the phase's own heap, not set-up garbage
	heap := startHeapSampler()
	snap := takeProcSnap()
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	now := func() time.Duration { return time.Since(epoch) }
	if tr != nil {
		w.st.begin(tr)
		defer tr.on.Store(false)
	}
	begin := now()
	end := begin + d
	ph.width = d / time.Duration(len(w.ranks[0].counts)-1)

	var wg sync.WaitGroup
	for _, r := range w.ranks {
		wg.Add(1)
		go func(r *wireRank) {
			defer wg.Done()
			w.rankLoop(r, tr, now, begin, end, ph.width)
		}(r)
	}
	ph.acked = make([]int, w.cfg.writers)
	commits := make([]hist, w.cfg.writers)
	werrs := make([]error, w.cfg.writers)
	for i := 0; i < w.cfg.writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ph.acked[i], werrs[i] = w.writerLoop(i, tr, now, end, &commits[i])
		}(i)
	}
	wg.Wait()
	ph.wall = now() - begin
	ph.proc = snap.to(takeProcSnap())
	ph.heapMiB = heap.peakMiB()
	if st1, ok := w.st.meta.JournalStats(); ok {
		ph.walDelta = wal.Stats{
			Appends: st1.Appends - st0.Appends, AppendBytes: st1.AppendBytes - st0.AppendBytes,
			Syncs: st1.Syncs - st0.Syncs,
		}
	}
	ph.counts = make([]int64, len(w.ranks[0].counts))
	for _, r := range w.ranks {
		ph.calls.merge(&r.calls)
		for i, n := range r.counts {
			ph.counts[i] += n
			r.counts[i] = 0
		}
		ph.failed += r.failed
		if ph.firstErr == nil {
			ph.firstErr = r.err
		}
		r.calls, r.failed, r.err = hist{}, 0, nil
	}
	ph.counts = ph.counts[:len(ph.counts)-1]
	ph.attempted += ph.calls.n
	for i := range commits {
		ph.commits.merge(&commits[i])
		ph.attempted += commits[i].n
		if werrs[i] != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = werrs[i]
			}
		}
	}
	return ph
}

func (w *wireStack) rankLoop(r *wireRank, tr *tracer, now func() time.Duration, phaseStart, end, width time.Duration) {
	var root uint64
	begin := now()
	if tr != nil {
		root = tr.newID()
	}
	record := func(layer string, start time.Duration) {
		if tr != nil {
			id := tr.newID()
			tr.add(span{ID: id, Parent: root, Req: id, Layer: layer, Start: start, End: now(), path: r.path})
		}
	}
	fail := func(err error) {
		r.failed++
		if r.err == nil {
			r.err = err
		}
	}
	for now() < end {
		b := r.rng.IntN(fileBlocks)
		off := int64(b * blockBytes)
		if r.rng.IntN(2) == 0 {
			t := now()
			r.gen[b]++
			fillBlock(r.buf, w.seed, r.key, b, r.gen[b])
			record(layerClient, t)
			t = now()
			n, err := r.h.WriteAt(r.proc, r.buf, off)
			r.observe(t, now(), phaseStart, width)
			record(layerCall, t)
			if err == nil && n != blockBytes {
				err = fmt.Errorf("short write %d", n)
			}
			if err != nil {
				fail(fmt.Errorf("write %s block %d: %w", r.path, b, err))
			}
			continue
		}
		t := now()
		n, err := r.h.ReadAt(r.proc, r.buf, off)
		r.observe(t, now(), phaseStart, width)
		record(layerCall, t)
		t = now()
		fillBlock(r.want, w.seed, r.key, b, r.gen[b])
		switch {
		case err != nil:
			fail(fmt.Errorf("read %s block %d: %w", r.path, b, err))
		case n != blockBytes || !bytes.Equal(r.buf, r.want):
			fail(fmt.Errorf("read %s block %d: %d bytes, content differs from generation %d", r.path, b, n, r.gen[b]))
		}
		record(layerClient, t)
	}
	if tr != nil {
		tr.add(span{ID: root, Layer: layerRank, Start: begin, End: now(), path: r.path})
	}
}

// calibResource is the curve writer i maintains: its own key, so the
// commits contend for the metadb lock without changing the prices the
// wire ranks pay.
func calibResource(i int) string { return fmt.Sprintf("calib-w%d", i) }

// writerLoop commits until end or the first failure and returns how
// many commits were acknowledged.
func (w *wireStack) writerLoop(i int, tr *tracer, now func() time.Duration, end time.Duration, lat *hist) (acked int, err error) {
	var root uint64
	begin := now()
	if tr != nil {
		root = tr.newID()
	}
	res := calibResource(i)
	for n := 0; now() < end; n++ {
		t := now()
		s := metadb.PerfSample{Resource: res, Op: "write", Size: int64(n), Seconds: float64(n) * 1e-6}
		if n%replaceEvery == replaceEvery-1 {
			err = w.st.meta.ReplaceSamples(nil, res, "write", []metadb.PerfSample{s})
		} else {
			err = w.st.meta.AddSample(nil, s)
		}
		lat.add(now() - t)
		if tr != nil {
			tr.add(span{Parent: root, Layer: layerCommit, Start: t, End: now()})
		}
		if err != nil {
			err = fmt.Errorf("calibration writer %d commit %d: %w", i, n, err)
			break
		}
		acked++
		if w.cfg.think > 0 {
			t := now()
			time.Sleep(w.cfg.think)
			if tr != nil {
				tr.add(span{Parent: root, Layer: layerClient, Start: t, End: now()})
			}
		}
	}
	if tr != nil {
		tr.add(span{ID: root, Layer: layerWriter, Start: begin, End: now()})
	}
	return acked, err
}

// expectedCurve is what replay must hold for a writer whose first
// acked commits were acknowledged: the sample of its last acknowledged
// replace plus every acknowledged add after it.
func expectedCurve(acked int) []int64 {
	var out []int64
	for n := 0; n < acked; n++ {
		if n%replaceEvery == replaceEvery-1 {
			out = out[:0]
		}
		out = append(out, int64(n))
	}
	return out
}

// verifyFiles reads every block of every rank's file back and checks
// it against its last written generation.  It returns the reads made
// and the blocks that did not match.
func (w *wireStack) verifyFiles() (reads, bad int64, err error) {
	for _, r := range w.ranks {
		for b := 0; b < fileBlocks; b++ {
			reads++
			n, rerr := r.h.ReadAt(r.proc, r.buf, int64(b*blockBytes))
			fillBlock(r.want, w.seed, r.key, b, r.gen[b])
			if rerr != nil || n != blockBytes || !bytes.Equal(r.buf, r.want) {
				bad++
				if err == nil {
					err = fmt.Errorf("final check %s block %d: n=%d err=%v", r.path, b, n, rerr)
				}
			}
		}
	}
	return reads, bad, err
}

// close releases the clients and the stack.  It is safe on a partly
// built wireStack.
func (w *wireStack) close() error {
	var errs []error
	for _, r := range w.ranks {
		if r.h != nil {
			errs = append(errs, r.h.Close(r.proc))
		}
	}
	for _, s := range w.sessions {
		errs = append(errs, s.Close(w.setup))
	}
	for _, c := range w.clients {
		errs = append(errs, c.Close())
	}
	if w.st != nil {
		errs = append(errs, w.st.close())
	}
	return errors.Join(errs...)
}

// checkReplay reopens the closed journal and requires every
// acknowledged calibration commit to have survived: the replayed
// metadb must hold each writer's curve as its acknowledged commits left
// it, and the journal itself must hold every acknowledged commit, in
// order (later commits supersede most of them in the replayed state).
func checkReplay(dir string, acked []int) error {
	db, err := metadb.OpenJournal(wal.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for i, a := range acked {
		want := expectedCurve(a)
		var got []int64
		for _, s := range db.Samples(nil, calibResource(i), "write") {
			got = append(got, s.Size)
		}
		sort.Slice(got, func(x, y int) bool { return got[x] < got[y] })
		if !equalInts(got, want) {
			db.CloseJournal()
			return fmt.Errorf("replay: writer %d curve has %d samples, want %d after %d acknowledged commits", i, len(got), len(want), a)
		}
	}
	if err := db.CloseJournal(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	log, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer log.Close()
	next := make([]int64, len(acked))
	for _, r := range rec.Records {
		// AddSample journals a sample, ReplaceSamples a resource with
		// its samples; this reads the commit number from either.
		var c struct {
			Resource string              `json:"resource"`
			Size     int64               `json:"size"`
			Samples  []metadb.PerfSample `json:"samples"`
		}
		if err := json.Unmarshal(r.Data, &c); err != nil {
			continue // not a calibration record
		}
		if len(c.Samples) == 1 {
			c.Size = c.Samples[0].Size
		}
		for i := range acked {
			if c.Resource == calibResource(i) {
				if c.Size != next[i] {
					return fmt.Errorf("journal: writer %d commit %d follows commit %d", i, c.Size, next[i]-1)
				}
				next[i]++
			}
		}
	}
	for i, a := range acked {
		if next[i] != int64(a) {
			return fmt.Errorf("journal: writer %d has %d commits, %d were acknowledged", i, next[i], a)
		}
	}
	return nil
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
