package metadb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// refCurve recomputes the (resource, op) curve from the raw sample
// rows with no memo: average per size in insertion order, sort by size.
func refCurve(db *DB, resource, op string) []PerfSample {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bySize := make(map[int64][]float64)
	for _, s := range db.samples {
		if s.Resource == resource && s.Op == op {
			bySize[s.Size] = append(bySize[s.Size], s.Seconds)
		}
	}
	out := make([]PerfSample, 0, len(bySize))
	for size, secs := range bySize {
		var sum float64
		for _, v := range secs {
			sum += v
		}
		out = append(out, PerfSample{Resource: resource, Op: op, Size: size, Seconds: sum / float64(len(secs))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

var curveKeys = []curveKey{{"disk", "read"}, {"disk", "write"}, {"tape", "read"}, {"tape", "write"}}

func randSample(rng *rand.Rand) PerfSample {
	k := curveKeys[rng.Intn(len(curveKeys))]
	return PerfSample{Resource: k.resource, Op: k.op, Size: int64(1+rng.Intn(6)) << 10, Seconds: float64(rng.Intn(1000)) / 7}
}

func randCurve(rng *rand.Rand) []PerfSample {
	out := make([]PerfSample, rng.Intn(4))
	for i := range out {
		out[i] = randSample(rng)
	}
	return out
}

// randDB is an unjournaled database with a random set of samples.
func randDB(rng *rand.Rand) *DB {
	db := New()
	for i, n := 0, rng.Intn(12); i < n; i++ {
		db.AddSample(nil, randSample(rng))
	}
	return db
}

// TestCurveCacheCoherent drives a seeded random sequence of every
// path that changes the samples — AddSample, ReplaceSamples,
// ApplyRecord, LoadFS, CopyFrom and journal replay — and after each
// step requires every key's Samples and Curve to equal a recompute
// from the raw rows.  Every key is read after every step, so each
// step runs against warm memos.
func TestCurveCacheCoherent(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fsys := faultfs.New()
			opts := wal.Options{FS: fsys, Dir: "journal", SegmentBytes: 1024}
			db, err := OpenJournal(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.CloseJournal() }()
			for step := 0; step < 300; step++ {
				var what string
				switch op := rng.Intn(10); {
				case op < 4:
					what = "AddSample"
					if err := db.AddSample(nil, randSample(rng)); err != nil {
						t.Fatal(err)
					}
				case op < 6:
					what = "ReplaceSamples"
					k := curveKeys[rng.Intn(len(curveKeys))]
					if err := db.ReplaceSamples(nil, k.resource, k.op, randCurve(rng)); err != nil {
						t.Fatal(err)
					}
				case op < 7:
					what = "ApplyRecord"
					typ, v := recAddSample, any(randSample(rng))
					if rng.Intn(2) == 0 {
						k := curveKeys[rng.Intn(len(curveKeys))]
						typ, v = recReplaceSamples, replacePayload{Resource: k.resource, Op: k.op, Samples: randCurve(rng)}
					}
					data, err := json.Marshal(v)
					if err != nil {
						t.Fatal(err)
					}
					if err := db.ApplyRecord(typ, data); err != nil {
						t.Fatal(err)
					}
				case op < 8:
					what = "LoadFS"
					if err := randDB(rng).SaveFS(fsys, "loaded.json"); err != nil {
						t.Fatal(err)
					}
					if err := db.LoadFS(fsys, "loaded.json"); err != nil {
						t.Fatal(err)
					}
					// The journal covers the adopted state only once
					// checkpointed; replay below relies on it.
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					what = "CopyFrom"
					db.CopyFrom(randDB(rng))
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				default:
					what = "OpenJournal"
					before := make(map[curveKey][]PerfSample)
					for _, k := range curveKeys {
						before[k] = db.Samples(nil, k.resource, k.op)
					}
					if err := db.CloseJournal(); err != nil {
						t.Fatal(err)
					}
					if db, err = OpenJournal(opts); err != nil {
						t.Fatal(err)
					}
					for _, k := range curveKeys {
						if got := db.Samples(nil, k.resource, k.op); !reflect.DeepEqual(got, before[k]) {
							t.Fatalf("step %d: replayed %v curve %v, want %v", step, k, got, before[k])
						}
					}
				}
				for _, k := range curveKeys {
					want := refCurve(db, k.resource, k.op)
					if got := db.Samples(nil, k.resource, k.op); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%s): Samples%v = %v, want %v", step, what, k, got, want)
					}
					if got := db.Curve(k.resource, k.op); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("step %d (%s): Curve%v = %v, want %v", step, what, k, got, want)
					}
				}
			}
		})
	}
}

// TestCurveIsShared: a warm Curve hands every reader the same memo,
// and Samples hands out a copy that does not alias it.
func TestCurveIsShared(t *testing.T) {
	db := New()
	db.AddSample(nil, PerfSample{Resource: "r", Op: "write", Size: 100, Seconds: 1})
	db.AddSample(nil, PerfSample{Resource: "r", Op: "write", Size: 200, Seconds: 2})
	a, b := db.Curve("r", "write"), db.Curve("r", "write")
	if &a[0] != &b[0] {
		t.Fatal("warm Curve rebuilt its memo")
	}
	s := db.Samples(nil, "r", "write")
	s[0].Seconds = 99
	if db.Curve("r", "write")[0].Seconds != 1 {
		t.Fatal("editing a Samples result reached the shared curve")
	}
	db.AddSample(nil, PerfSample{Resource: "r", Op: "write", Size: 100, Seconds: 3})
	if a[0].Seconds != 1 {
		t.Fatal("a mutation wrote into a curve already handed out")
	}
	if c := db.Curve("r", "write"); c[0].Seconds != 2 {
		t.Fatalf("curve after AddSample = %+v, want size 100 averaged to 2", c)
	}
}
