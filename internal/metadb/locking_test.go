package metadb_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// parkFS wraps a filesystem so that, while armed, every file Sync
// announces itself on parked and then blocks until release is closed:
// a commit can be held inside its fsync barrier for as long as a test
// needs.
type parkFS struct {
	vfs.FS
	mu      sync.Mutex
	parked  chan struct{}
	release chan struct{}
}

func (f *parkFS) arm() (parked, release chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parked, f.release = make(chan struct{}, 1), make(chan struct{})
	return f.parked, f.release
}

func (f *parkFS) gate() (parked, release chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.parked, f.release
}

func (f *parkFS) Create(name string) (vfs.File, error) { return f.wrap(f.FS.Create(name)) }
func (f *parkFS) Append(name string) (vfs.File, error) { return f.wrap(f.FS.Append(name)) }

func (f *parkFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &parkFile{File: file, fs: f}, nil
}

type parkFile struct {
	vfs.File
	fs *parkFS
}

func (pf *parkFile) Sync() error {
	if parked, release := pf.fs.gate(); release != nil {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-release
	}
	return pf.File.Sync()
}

// within fails the test if fn does not return within a second.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s blocked behind a commit parked in fsync", what)
	}
}

// TestReadersDoNotWaitOnBarrier parks an AddSample inside its fsync
// and requires every reader — the pricing path included — to return
// meanwhile without seeing the parked row, which appears once the
// fsync is released.
func TestReadersDoNotWaitOnBarrier(t *testing.T) {
	fsys := &parkFS{FS: faultfs.New()}
	db, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	mutate(t, db)
	pdb := predict.NewDB(db)
	if _, err := pdb.Unit("sdsc-disk", "read", 3000); err != nil {
		t.Fatal(err)
	}

	parked, release := fsys.arm()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // a failing check must not leave the commit parked
	committed := make(chan error, 1)
	go func() {
		committed <- db.AddSample(nil, metadb.PerfSample{Resource: "sdsc-disk", Op: "read", Size: 1 << 30, Seconds: 9})
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("AddSample never reached its fsync")
	}

	within(t, "Samples", func() {
		for _, s := range db.Samples(nil, "sdsc-disk", "read") {
			if s.Size == 1<<30 {
				t.Error("a row is visible before its fsync returned")
			}
		}
	})
	within(t, "GetDataset", func() {
		if _, err := db.GetDataset(nil, "r1", "temp"); err != nil {
			t.Error(err)
		}
	})
	within(t, "Constant", func() {
		if db.Constant(nil, "sdsc-disk", "read", metadb.CompOpen) != 0.002 {
			t.Error("Constant lost its row")
		}
	})
	within(t, "predict.DB.Unit", func() {
		if _, err := pdb.Unit("sdsc-disk", "read", 1<<20); err != nil {
			t.Error(err)
		}
	})
	select {
	case err := <-committed:
		t.Fatalf("AddSample returned %v while its fsync was parked", err)
	default:
	}

	unpark()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	got := db.Samples(nil, "sdsc-disk", "read")
	if last := got[len(got)-1]; last.Size != 1<<30 || last.Seconds != 9 {
		t.Fatalf("acked row missing after its fsync: %+v", got)
	}
}

// TestCheckpointConcurrentWithReadersAndMutators runs Checkpoint in a
// loop beside mutators and readers (meant for -race) and requires a
// reopen to hold every acknowledged mutation.
func TestCheckpointConcurrentWithReadersAndMutators(t *testing.T) {
	fsys := faultfs.New()
	db, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 3, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := db.PutRun(nil, metadb.Run{ID: id, App: "a", User: "u", Iterations: i, Procs: 1}); err != nil {
					errc <- err
					return
				}
				if err := db.AddSample(nil, metadb.PerfSample{Resource: "disk", Op: "write", Size: int64(w*perWriter + i), Seconds: float64(i)}); err != nil {
					errc <- err
					return
				}
				if i%10 == 0 {
					if err := db.ReplaceSamples(nil, fmt.Sprintf("r%d", w), "read", []metadb.PerfSample{{Size: int64(i), Seconds: 1}}); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Samples(nil, "disk", "write")
			db.Runs(nil)
			db.JournalStats()
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	want := canon(t, db)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	db2, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseJournal()
	if got := canon(t, db2); got != want {
		t.Fatalf("reopen after concurrent checkpoints differs:\n got %s\nwant %s", got, want)
	}
	if n := len(db2.Runs(nil)); n != writers*perWriter {
		t.Fatalf("reopen holds %d runs, want %d", n, writers*perWriter)
	}
	if n := len(db2.Samples(nil, "disk", "write")); n != writers*perWriter {
		t.Fatalf("reopen holds %d samples, want %d", n, writers*perWriter)
	}
}

// TestCloseJournalFailsMutations: after CloseJournal every mutator
// fails with ErrClosed and applies nothing, and a mutator racing the
// close either is acknowledged and survives a reopen or fails closed.
func TestCloseJournalFailsMutations(t *testing.T) {
	fsys := faultfs.New()
	db, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, db)
	if err := db.PutLifecycle(nil, metadb.Lifecycle{Pool: "pool", Path: "kept", State: "resident"}); err != nil {
		t.Fatal(err)
	}
	before := canon(t, db)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatalf("second CloseJournal: %v", err)
	}
	if db.Journaled() {
		t.Fatal("Journaled() true after CloseJournal")
	}
	for name, mut := range map[string]func() error{
		"PutRun":     func() error { return db.PutRun(nil, metadb.Run{ID: "late"}) },
		"PutDataset": func() error { return db.PutDataset(nil, metadb.Dataset{RunID: "late", Name: "d"}) },
		"PutLifecycle": func() error {
			return db.PutLifecycle(nil, metadb.Lifecycle{Pool: "p", Path: "late"})
		},
		"AddSample": func() error {
			return db.AddSample(nil, metadb.PerfSample{Resource: "sdsc-disk", Op: "read", Size: 7, Seconds: 1})
		},
		"DeleteLifecycle": func() error { return db.DeleteLifecycle(nil, "pool", "kept") },
		"ReplaceSamples":  func() error { return db.ReplaceSamples(nil, "sdsc-disk", "read", nil) },
		"SetConstant": func() error {
			return db.SetConstant(nil, metadb.PerfConstant{Resource: "x", Op: "read", Component: metadb.CompConn, Seconds: 1})
		},
		"ApplyRecord": func() error { return db.ApplyRecord(1, []byte(`{"id":"late"}`)) },
	} {
		err := mut()
		if !errors.Is(err, metadb.ErrClosed) || !errors.Is(err, storage.ErrClosed) {
			t.Errorf("%s after CloseJournal: err = %v, want ErrClosed", name, err)
		}
	}
	if got := canon(t, db); got != before {
		t.Fatalf("a mutation after CloseJournal was applied:\n got %s\nwant %s", got, before)
	}

	// Racing case: commits in flight while the journal closes.
	db2, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 40
	acked := make([][]int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				size := int64(1000 + w*perWriter + i)
				err := db2.AddSample(nil, metadb.PerfSample{Resource: "race", Op: "write", Size: size, Seconds: 1})
				switch {
				case err == nil:
					acked[w] = append(acked[w], size)
				case errors.Is(err, metadb.ErrClosed):
				default:
					t.Errorf("writer %d: %v", w, err)
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	if err := db2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	visible := make(map[int64]bool)
	for _, s := range db2.Samples(nil, "race", "write") {
		visible[s.Size] = true
	}

	db3, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.CloseJournal()
	durable := make(map[int64]bool)
	for _, s := range db3.Samples(nil, "race", "write") {
		durable[s.Size] = true
	}
	n := 0
	for _, sizes := range acked {
		for _, size := range sizes {
			n++
			if !durable[size] {
				t.Fatalf("acked sample %d lost across CloseJournal", size)
			}
		}
	}
	if len(durable) != n || len(visible) != n {
		t.Fatalf("%d acked, %d visible, %d durable: an unacked mutation was applied", n, len(visible), len(durable))
	}
}

// TestDeleteLifecycleTwiceJournalsOnce: two concurrent deletes of one
// row append exactly one journal record.  The first delete is parked
// in its fsync while the second passes the unlocked presence check, so
// only the re-check under the writer lock keeps the second off the
// journal.
func TestDeleteLifecycleTwiceJournalsOnce(t *testing.T) {
	fsys := &parkFS{FS: faultfs.New()}
	db, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	if err := db.PutLifecycle(nil, metadb.Lifecycle{Pool: "pool", Path: "f", State: "resident", Bytes: 1}); err != nil {
		t.Fatal(err)
	}
	st0, _ := db.JournalStats()

	parked, release := fsys.arm()
	errs := make(chan error, 2)
	del := func() { errs <- db.DeleteLifecycle(nil, "pool", "f") }
	go del()
	<-parked
	go del()
	time.Sleep(20 * time.Millisecond) // let the second delete queue on the writer lock
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st1, _ := db.JournalStats()
	if n := st1.Appends - st0.Appends; n != 1 {
		t.Fatalf("two deletes of one row appended %d records, want 1", n)
	}
	if _, err := db.GetLifecycle(nil, "pool", "f"); !errors.Is(err, metadb.ErrNotFound) {
		t.Fatalf("row still present after delete: %v", err)
	}
}
