package srbnet

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vtime"
)

// countingConn wraps a net.Conn and counts Write calls.  net.Buffers
// falls back to one Write per iovec on a wrapper, so Writes count
// iovecs; the writer's own counters count writevs.  A non-nil gate
// holds every Write until it is closed, and a non-nil err fails them.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	closed atomic.Bool
	gate   chan struct{}
	err    error
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	if c.err != nil {
		return 0, c.err
	}
	return c.Conn.Write(b)
}

func (c *countingConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// countedResp is a server response whose release the test counts.
type countedResp struct {
	*response
	released *atomic.Int64
}

func (c countedResp) release() {
	c.released.Add(1)
	c.response.release()
}

// newCountedResp returns a pooled response tagged tag, carrying n
// bytes of Data in a pooled data buffer as an opRead response does.
func newCountedResp(tag uint64, n int, released *atomic.Int64) countedResp {
	r := getResponse()
	r.Tag, r.N = tag, n
	r.dbuf = getFrame()
	r.Data = r.dbuf.grow(n)
	for i := range r.Data {
		r.Data[i] = byte(tag)
	}
	return countedResp{response: r, released: released}
}

// startWriter runs w in its own goroutine; the returned channel closes
// when run returns, after which w's counters may be read.
func startWriter[F outFrame](w *frameWriter[F]) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run()
	}()
	return done
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// readResponses decodes n response frames from br, checking their tags
// and Data run 1..n in order.
func readResponses(t *testing.T, br *bufio.Reader, n, size int) {
	t.Helper()
	for tag := uint64(1); tag <= uint64(n); tag++ {
		f, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", tag, err)
		}
		var got response
		if err := decodeResponse(f.b, &got); err != nil {
			t.Fatalf("frame %d: %v", tag, err)
		}
		if got.Tag != tag || !bytes.Equal(got.Data, bytes.Repeat([]byte{byte(tag)}, size)) {
			t.Fatalf("frame %d: got tag %d with %d data bytes, out of order or torn", tag, got.Tag, len(got.Data))
		}
		putFrame(f)
	}
}

// TestWriterCoalescesQueuedFrames: K small frames queued before the
// first flush leave in one writev, in order, and the writer releases
// every frame it owns and holds on to no pooled buffer.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	const k, size = 8, 100
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &countingConn{Conn: local}
	var released atomic.Int64
	q := make(chan countedResp, k)
	for tag := uint64(1); tag <= k; tag++ {
		q <- newCountedResp(tag, size, &released)
	}
	w := newFrameWriter(conn, q, nil, func(err error) { t.Errorf("write failed: %v", err) })
	done := startWriter(w)
	readResponses(t, bufio.NewReader(remote), k, size)
	close(q)
	waitClosed(t, done, "writer")

	if w.flushes != 1 || w.written != k {
		t.Fatalf("%d frames in %d writevs, want %d in 1", w.written, w.flushes, k)
	}
	if got := conn.writes.Load(); got != 2*k {
		t.Fatalf("%d iovecs written, want %d (header + data per frame)", got, 2*k)
	}
	if got := released.Load(); got != k {
		t.Fatalf("%d of %d frames released", got, k)
	}
	for i, fb := range w.frames[:cap(w.frames)] {
		if fb != nil {
			t.Fatalf("writer still holds pooled frame %d after the flush", i)
		}
	}
	for i, f := range w.owned[:cap(w.owned)] {
		if f.response != nil {
			t.Fatalf("writer still holds released frame %d after the flush", i)
		}
	}
}

// TestWriterYieldsOnlyForSmallBatches: a batch under yieldBelowBytes
// yields once before its writev; a batch at or over it is written
// without yielding.
func TestWriterYieldsOnlyForSmallBatches(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		yields int
	}{
		{"small", 4 << 10, 1},
		{"at-cap", yieldBelowBytes, 0},
		{"bulk", 256 << 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local, remote := net.Pipe()
			defer remote.Close()
			var released atomic.Int64
			q := make(chan countedResp, 1)
			q <- newCountedResp(1, tc.size, &released)
			w := newFrameWriter(net.Conn(local), q, nil, func(err error) { t.Errorf("write failed: %v", err) })
			done := startWriter(w)
			// The queue stays open until the frame has arrived, so the
			// writer saw a dry, open queue before it flushed.
			readResponses(t, bufio.NewReader(remote), 1, tc.size)
			close(q)
			waitClosed(t, done, "writer")
			if w.yields != tc.yields || w.flushes != 1 {
				t.Fatalf("%d-byte batch: %d yields over %d writevs, want %d over 1", tc.size, w.yields, w.flushes, tc.yields)
			}
		})
	}
}

// TestServerWriterDrainsAfterWriteError: once a write fails, the server
// writer reports it once and keeps draining its queue, releasing every
// response, so handlers blocked on the queue always finish.
func TestServerWriterDrainsAfterWriteError(t *testing.T) {
	const handlers = 32
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &countingConn{Conn: local, err: errors.New("injected write error")}
	var released, fails atomic.Int64
	q := make(chan countedResp) // unbuffered: every handler waits on the writer
	w := newFrameWriter(conn, q, nil, func(err error) {
		fails.Add(1)
		conn.Close()
	})
	done := startWriter(w)

	var hwg sync.WaitGroup
	for i := 0; i < handlers; i++ {
		hwg.Add(1)
		go func(tag uint64) {
			defer hwg.Done()
			q <- newCountedResp(tag, 64, &released)
		}(uint64(i + 1))
	}
	sent := make(chan struct{})
	go func() {
		hwg.Wait()
		close(sent)
	}()
	waitClosed(t, sent, "handlers blocked on a dead connection's queue;")
	close(q)
	waitClosed(t, done, "writer")

	if got := released.Load(); got != handlers {
		t.Fatalf("%d of %d responses released", got, handlers)
	}
	if fails.Load() != 1 || !conn.closed.Load() {
		t.Fatalf("write error reported %d times, conn closed %v; want once and closed", fails.Load(), conn.closed.Load())
	}
}

// TestClientWriterErrorPoisonsMux: a failed write poisons the mux, so
// every caller waiting on a response wakes with a transport error and
// the connection reports itself failed.
func TestClientWriterErrorPoisonsMux(t *testing.T) {
	const callers = 16
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &countingConn{Conn: local, gate: make(chan struct{}), err: errors.New("injected write error")}
	c := NewClient("pipe", "shen", "nwu", "sdsc-disk", storage.KindRemoteDisk)
	m := c.newMux(conn)
	sim := vtime.NewVirtual()

	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			req := getRequest()
			req.Op, req.Handle, req.N = opRead, 1, 4096
			_, err := m.call(sim.NewProc("rank"), req)
			errs <- err
		}()
	}
	// Fail the write only once every caller waits on its response.
	for deadline := time.Now().Add(5 * time.Second); m.load() != callers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers registered", m.load(), callers)
		}
	}
	close(conn.gate)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errConnFailed) {
				t.Fatalf("caller %d: %v, want a transport failure", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d never woke after the write error", i)
		}
	}
	if m.load() != -1 || !conn.closed.Load() {
		t.Fatalf("mux load %d, conn closed %v; want a poisoned mux and a closed conn", m.load(), conn.closed.Load())
	}
}

// discardConn accepts every write; only Write is ever called.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// TestReadFrameZeroAlloc: reading one hot opRead response frame
// allocates nothing once the frame pool is warm; the length prefix is
// peeked in the bufio buffer rather than copied out through an
// escaping array.
func TestReadFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	resp := getResponse()
	resp.Tag, resp.N, resp.Size = 7, 4096, 1<<20
	resp.Data = bytes.Repeat([]byte{0xAB}, 4096)
	f := getFrame()
	data := encodeResponse(f, resp)
	wire := append(f.b, data...)
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	hot := func() {
		rd.Reset(wire)
		br.Reset(rd)
		f, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			panic(err)
		}
		putFrame(f)
	}
	hot() // warm the pool
	if avg := testing.AllocsPerRun(200, hot); avg != 0 {
		t.Fatalf("readFrame: %v allocs/op, want 0", avg)
	}
}

// TestWriterFlushZeroAlloc: a writer flush of a small batch — frames
// encoded into pooled buffers, one vectored write, frames and
// writer-owned requests and responses released — allocates nothing once
// the pools and the writer's own iovec storage are warm.
func TestWriterFlushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const batch = 4
	data := bytes.Repeat([]byte{0xAB}, 4096)
	conn := discardConn{}
	respq := make(chan *response, batch)
	rw := newFrameWriter(net.Conn(conn), respq, nil, nil)
	reqq := make(chan *request, batch)
	qw := newFrameWriter(net.Conn(conn), reqq, nil, nil)
	hot := func() {
		for i := 0; i < batch; i++ {
			r := getResponse()
			r.Tag, r.N, r.Data = uint64(i), len(data), data
			respq <- r
		}
		rw.collect(<-respq)
		if err := rw.flush(); err != nil {
			panic(err)
		}
		for i := 0; i < batch; i++ {
			r := getRequest()
			r.Op, r.Tag, r.Off, r.Data = opChunk, uint64(i), int64(i*len(data)), data
			r.releaseAfterSend = true // writer-owned, like a streamed put's chunks
			reqq <- r
		}
		qw.collect(<-reqq)
		if err := qw.flush(); err != nil {
			panic(err)
		}
	}
	hot() // warm the pools and the writers' storage
	if avg := testing.AllocsPerRun(200, hot); avg != 0 {
		t.Fatalf("writer flush of %d responses and %d requests: %v allocs/op, want 0", batch, batch, avg)
	}
}
