package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// SRBNetResult compares the wall-clock cost of the serialized (one
// request in flight) and pipelined disciplines for the same multi-rank
// workload.  The virtual-time cost is identical under both: the
// Now/AdvanceTo handshake replays every operation at its logical
// instant regardless of how frames share the TCP stream.
type SRBNetResult struct {
	Ranks         int
	ChunksPerRank int
	ChunkBytes    int
	Serialized    time.Duration // wall clock, one request in flight
	Pipelined     time.Duration // wall clock, tagged multiplexing

	// The codec-bound leg: the same multi-rank workload with larger
	// chunks over a purely virtual sim, so device waits cost no wall
	// time and encode/decode/copy on the wire dominates; in the scaled
	// legs above, the eq. (1) waits drown the codec in noise.
	WireChunkBytes int
	WireV3         time.Duration // codec-bound wall clock
}

// Speedup is the pipelined wall-clock win over the serialized
// discipline.
func (r SRBNetResult) Speedup() float64 {
	if r.Pipelined <= 0 {
		return 0
	}
	return r.Serialized.Seconds() / r.Pipelined.Seconds()
}

// SRBNetConcurrency runs 8 ranks of chunked writes and reads through
// one shared srbnet session against a multi-channel remote-disk array,
// once serialized and once pipelined, and reports the wall time of
// each.  The serialized baseline is the pipelined client pinned to one
// connection with a lock held around every rank's request, so exactly
// one request is ever in flight.  The sim runs in scaled mode so
// the eq. (1) costs become real waits — the regime the wire layer
// operates in; with one request in flight the array's channels idle
// while ranks take turns on the wire.
func SRBNetConcurrency() (SRBNetResult, error) {
	res := SRBNetResult{Ranks: 8, ChunksPerRank: 8, ChunkBytes: 4096, WireChunkBytes: 64 << 10}
	run := func(sim *vtime.Sim, chunkBytes int, serialized bool) (time.Duration, error) {
		broker := srb.NewBroker()
		be, err := device.New(device.Config{
			Name: "sdsc-array", Kind: storage.KindRemoteDisk,
			Params: model.RemoteDisk2000(), Store: memfs.New(), Channels: 64,
		})
		if err != nil {
			return 0, err
		}
		if err := broker.Register(be); err != nil {
			return 0, err
		}
		broker.AddUser("shen", "nwu")
		srv, err := srbnet.Serve("127.0.0.1:0", broker, sim)
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		srv.SetLogf(func(string, ...any) {})
		// Each rank holds its lock around every request.  Serialized
		// ranks share one lock over a one-connection pool; pipelined
		// ranks each own an uncontended lock.
		var opts []srbnet.Option
		locks := make([]*sync.Mutex, res.Ranks)
		for r := range locks {
			if r == 0 || !serialized {
				locks[r] = new(sync.Mutex)
			} else {
				locks[r] = locks[0]
			}
		}
		if serialized {
			opts = append(opts, srbnet.WithPoolSize(1))
		}
		client := srbnet.NewClient(srv.Addr(), "shen", "nwu", "sdsc-array", storage.KindRemoteDisk, opts...)
		defer client.Close()

		p0 := sim.NewProc("rank0")
		sess, err := client.Connect(p0)
		if err != nil {
			return 0, err
		}
		procs := make([]*vtime.Proc, res.Ranks)
		handles := make([]storage.Handle, res.Ranks)
		for r := range procs {
			procs[r] = sim.NewProc(fmt.Sprintf("rank%d-io", r))
			h, err := sess.Open(procs[r], fmt.Sprintf("exp/rank%d", r), storage.ModeCreate)
			if err != nil {
				return 0, err
			}
			handles[r] = h
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, res.Ranks)
		for r := range procs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]byte, chunkBytes)
				for k := 0; k < res.ChunksPerRank; k++ {
					off := int64(k * chunkBytes)
					locks[r].Lock()
					_, err := handles[r].WriteAt(procs[r], buf, off)
					locks[r].Unlock()
					if err != nil {
						errs[r] = err
						return
					}
					locks[r].Lock()
					_, err = handles[r].ReadAt(procs[r], buf, off)
					locks[r].Unlock()
					if err != nil {
						errs[r] = err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		for r := range handles {
			if err := handles[r].Close(procs[r]); err != nil {
				return 0, err
			}
		}
		if err := sess.Close(p0); err != nil {
			return 0, err
		}
		return elapsed, nil
	}
	// Scaled legs: 1 virtual second = 1 wall millisecond, so a 4 KiB
	// remote call (~45 ms virtual) waits ~45 µs of real time and the
	// pipelining discipline is what shows.
	scaled := func() *vtime.Sim { return vtime.NewScaled(1e-3) }
	var err error
	if res.Serialized, err = run(scaled(), res.ChunkBytes, true); err != nil {
		return res, err
	}
	if res.Pipelined, err = run(scaled(), res.ChunkBytes, false); err != nil {
		return res, err
	}
	// Codec-bound leg: a purely virtual sim makes the eq. (1) waits
	// free, so wall clock is encode/decode/copy on the wire.  Keep the
	// best of a few runs to shed scheduler noise.
	for i := 0; i < 3; i++ {
		d, err := run(vtime.NewVirtual(), res.WireChunkBytes, false)
		if err != nil {
			return res, err
		}
		if res.WireV3 == 0 || d < res.WireV3 {
			res.WireV3 = d
		}
	}
	return res, nil
}
