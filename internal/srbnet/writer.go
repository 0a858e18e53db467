package srbnet

import (
	"net"
	"runtime"
	"sync/atomic"
)

// yieldBelowBytes caps the writer's yield-once rule: a batch smaller
// than this waits for one runtime.Gosched before its writev, so frames
// that runnable senders are about to queue share the syscall.  A
// yielded goroutine waits in the global run queue behind whatever
// CPU-bound work is runnable, so a batch that already carries bulk
// data is written at once.
const yieldBelowBytes = 32 << 10

// outFrame is one frame queued for a connection's writer: a *request
// on the client, a *response on the server.
type outFrame interface {
	// writerOwned reports whether the writer releases the frame once
	// it is written or discarded.  It is read before encode: once the
	// writev lands, a frame the writer does not own may be recycled by
	// its sender at any moment.
	writerOwned() bool
	// encode appends the frame to f and returns its bulk Data, which
	// rides the writev as its own iovec instead of being copied.
	encode(f *frameBuf) []byte
	// release returns a writer-owned frame to its pools.
	release()
}

// A client request belongs to its caller, who recycles it after the
// response arrives; only the frames of a chunk-streamed put, which no
// response acknowledges one by one, belong to the writer.
func (req *request) writerOwned() bool { return req.releaseAfterSend }

// encode also publishes req.sent, the edge that lets the caller recycle
// req once its response arrives.
func (req *request) encode(f *frameBuf) []byte {
	data := encodeRequest(f, req)
	atomic.StoreUint32(&req.sent, 1)
	return data
}

func (resp *response) writerOwned() bool { return true }

func (resp *response) encode(f *frameBuf) []byte { return encodeResponse(f, resp) }

// frameWriter is a connection's only encoder, on both sides of the
// wire.  It takes the next queued frame, collects every frame queued
// behind it into one batch (each encoded into a pooled buffer, each
// frame's bulk Data as its own iovec), writes the batch with one
// vectored write (net.Buffers → writev), and then returns the buffers
// and the writer-owned frames to their pools.  The iovec and
// net.Buffers storage belong to the writer and are reused across
// flushes, so a flush allocates nothing.
//
// After a write error the writer reports it once through fail and then
// discards queued frames, releasing the ones it owns, until the queue
// closes or stop fires; a sender blocked on the queue is never wedged.
type frameWriter[F outFrame] struct {
	conn net.Conn
	q    chan F
	stop <-chan struct{} // nil when the owner closes q instead
	fail func(error)

	iov    [][]byte
	bufs   net.Buffers
	frames []*frameBuf
	owned  []F
	size   int // bytes in the batch, headers and data

	// Written by the writer goroutine only; read them after run returns.
	flushes, written, yields int
}

func newFrameWriter[F outFrame](conn net.Conn, q chan F, stop <-chan struct{}, fail func(error)) *frameWriter[F] {
	return &frameWriter[F]{conn: conn, q: q, stop: stop, fail: fail}
}

// run writes batches until the queue closes, stop fires or a write
// fails.
func (w *frameWriter[F]) run() {
	for {
		f, ok := w.next()
		if !ok {
			return
		}
		w.collect(f)
		if err := w.flush(); err != nil {
			w.fail(err)
			w.discard()
			return
		}
	}
}

// next blocks for the next queued frame; ok is false once the queue is
// closed or stop has fired.
func (w *frameWriter[F]) next() (f F, ok bool) {
	select {
	case f, ok = <-w.q:
		return f, ok
	case <-w.stop:
		return f, false
	}
}

// collect adds f and every frame queued behind it to the batch.  When
// the queue runs dry while the batch is under yieldBelowBytes, it
// yields once and drains again before the caller flushes.
func (w *frameWriter[F]) collect(f F) {
	w.add(f)
	yielded := false
	for {
		select {
		case next, ok := <-w.q:
			if !ok {
				return
			}
			w.add(next)
			continue
		default:
		}
		if yielded || w.size >= yieldBelowBytes {
			return
		}
		runtime.Gosched()
		yielded = true
		w.yields++
	}
}

func (w *frameWriter[F]) add(f F) {
	if f.writerOwned() {
		w.owned = append(w.owned, f)
	}
	fb := getFrame()
	data := f.encode(fb)
	w.iov = append(w.iov, fb.b)
	if len(data) > 0 {
		w.iov = append(w.iov, data)
	}
	w.frames = append(w.frames, fb)
	w.size += len(fb.b) + len(data)
	w.written++
}

// flush writes the batch and releases its buffers and owned frames,
// whether or not the write succeeded.
func (w *frameWriter[F]) flush() error {
	w.bufs = w.iov
	_, err := w.bufs.WriteTo(w.conn)
	for _, fb := range w.frames {
		putFrame(fb)
	}
	for _, f := range w.owned {
		f.release()
	}
	// Drop the references so an idle connection pins no sender's data.
	clear(w.iov)
	clear(w.frames)
	clear(w.owned)
	w.iov, w.frames, w.owned = w.iov[:0], w.frames[:0], w.owned[:0]
	w.size = 0
	w.flushes++
	return err
}

// discard drops frames queued after a write error, releasing the ones
// the writer owns, until the queue closes or stop fires.
func (w *frameWriter[F]) discard() {
	for {
		f, ok := w.next()
		if !ok {
			return
		}
		if f.writerOwned() {
			f.release()
		}
	}
}
