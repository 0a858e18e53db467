package main

import (
	"sync"
	"time"

	"repro/internal/qos"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// probe receives one timed call from a wrapper.  It is either a span
// recorder (traced runs) or a latency collector (untraced runs that
// cannot time calls from the benchmark's own code, such as the
// Astro3D app's client calls).
type probe interface {
	begin(p *vtime.Proc) mark
	end(m mark, path string)
}

// mark is when a call began, on the wall clock and (when the caller
// has one) the caller's virtual clock.
type mark struct {
	wall, virt time.Duration
}

// spanProbe records each call as a span of one layer, under parent
// (0: link places it later).
type spanProbe struct {
	tr    *tracer
	layer string

	mu     sync.Mutex
	parent uint64
}

func (p *spanProbe) setParent(id uint64) {
	p.mu.Lock()
	p.parent = id
	p.mu.Unlock()
}

func (p *spanProbe) begin(proc *vtime.Proc) mark {
	m := mark{wall: p.tr.now()}
	if proc != nil {
		m.virt = proc.Now()
	}
	return m
}

func (p *spanProbe) end(m mark, path string) {
	p.mu.Lock()
	parent := p.parent
	p.mu.Unlock()
	id := p.tr.newID()
	req := id
	if parent == 0 {
		req = 0
	}
	p.tr.add(span{ID: id, Parent: parent, Req: req, Layer: p.layer, Start: m.wall, End: p.tr.now(), path: path, vtime: m.virt})
}

// latencyProbe collects call latencies.
type latencyProbe struct {
	epoch time.Time

	mu  sync.Mutex
	lat []time.Duration
}

func newLatencyProbe() *latencyProbe { return &latencyProbe{epoch: time.Now()} }

func (p *latencyProbe) begin(*vtime.Proc) mark { return mark{wall: time.Since(p.epoch)} }

func (p *latencyProbe) end(m mark, _ string) {
	d := time.Since(p.epoch) - m.wall
	p.mu.Lock()
	p.lat = append(p.lat, d)
	p.mu.Unlock()
}

// take returns the latencies collected so far and starts afresh.
func (p *latencyProbe) take() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.lat
	p.lat = nil
	return out
}

// timedPricer wraps a qos pricer so every admission pricing call is a
// predict.price span.
func timedPricer(pr probe, inner qos.Pricer) qos.Pricer {
	return func(class, op string, bytes int64) float64 {
		m := pr.begin(nil)
		v := inner(class, op, bytes)
		pr.end(m, "")
		return v
	}
}

// The storage wrappers below time every call that reaches the wrapped
// backend and change nothing else: each forwards exactly the optional
// interfaces (storage.Outage, storage.WholeFiler, storage.VectorHandle)
// its inner value implements, so callers that type-assert for a fast
// path take the same path through the wrapper as without it.

// wrapBackend returns be with every session and handle call timed.
func wrapBackend(be storage.Backend, pr probe) storage.Backend {
	b := &timedBackend{inner: be, pr: pr}
	if o, ok := be.(storage.Outage); ok {
		return &outageBackend{timedBackend: b, o: o}
	}
	return b
}

type timedBackend struct {
	inner storage.Backend
	pr    probe
}

type outageBackend struct {
	*timedBackend
	o storage.Outage
}

var (
	_ storage.Backend = (*timedBackend)(nil)
	_ storage.Outage  = (*outageBackend)(nil)
)

func (b *outageBackend) SetDown(down bool) { b.o.SetDown(down) }
func (b *outageBackend) Down() bool        { return b.o.Down() }

func (b *timedBackend) Name() string                  { return b.inner.Name() }
func (b *timedBackend) Kind() storage.Kind            { return b.inner.Kind() }
func (b *timedBackend) Capacity() (total, used int64) { return b.inner.Capacity() }

func (b *timedBackend) Connect(p *vtime.Proc) (storage.Session, error) {
	m := b.pr.begin(p)
	s, err := b.inner.Connect(p)
	b.pr.end(m, "")
	if err != nil {
		return nil, err
	}
	return wrapSession(s, b.pr), nil
}

func wrapSession(s storage.Session, pr probe) storage.Session {
	ts := &timedSession{inner: s, pr: pr}
	if wf, ok := s.(storage.WholeFiler); ok {
		return &wholeFileSession{timedSession: ts, wf: wf}
	}
	return ts
}

type timedSession struct {
	inner storage.Session
	pr    probe
}

type wholeFileSession struct {
	*timedSession
	wf storage.WholeFiler
}

var _ storage.WholeFiler = (*wholeFileSession)(nil)

func (s *timedSession) Open(p *vtime.Proc, name string, mode storage.AMode) (storage.Handle, error) {
	m := s.pr.begin(p)
	h, err := s.inner.Open(p, name, mode)
	s.pr.end(m, name)
	if err != nil {
		return nil, err
	}
	return wrapHandle(h, s.pr), nil
}

func (s *timedSession) Remove(p *vtime.Proc, name string) error {
	m := s.pr.begin(p)
	err := s.inner.Remove(p, name)
	s.pr.end(m, name)
	return err
}

func (s *timedSession) Stat(p *vtime.Proc, name string) (storage.FileInfo, error) {
	m := s.pr.begin(p)
	fi, err := s.inner.Stat(p, name)
	s.pr.end(m, name)
	return fi, err
}

func (s *timedSession) List(p *vtime.Proc, prefix string) ([]storage.FileInfo, error) {
	m := s.pr.begin(p)
	fis, err := s.inner.List(p, prefix)
	s.pr.end(m, prefix)
	return fis, err
}

func (s *timedSession) Close(p *vtime.Proc) error {
	m := s.pr.begin(p)
	err := s.inner.Close(p)
	s.pr.end(m, "")
	return err
}

func (s *wholeFileSession) PutFile(p *vtime.Proc, name string, mode storage.AMode, data []byte) error {
	m := s.pr.begin(p)
	err := s.wf.PutFile(p, name, mode, data)
	s.pr.end(m, name)
	return err
}

func (s *wholeFileSession) GetFile(p *vtime.Proc, name string) ([]byte, error) {
	m := s.pr.begin(p)
	b, err := s.wf.GetFile(p, name)
	s.pr.end(m, name)
	return b, err
}

func wrapHandle(h storage.Handle, pr probe) storage.Handle {
	th := &timedHandle{inner: h, pr: pr}
	if v, ok := h.(storage.VectorHandle); ok {
		return &vectorHandle{timedHandle: th, v: v}
	}
	return th
}

type timedHandle struct {
	inner storage.Handle
	pr    probe
}

type vectorHandle struct {
	*timedHandle
	v storage.VectorHandle
}

var _ storage.VectorHandle = (*vectorHandle)(nil)

func (h *timedHandle) Path() string { return h.inner.Path() }
func (h *timedHandle) Size() int64  { return h.inner.Size() }

func (h *timedHandle) ReadAt(p *vtime.Proc, b []byte, off int64) (int, error) {
	m := h.pr.begin(p)
	n, err := h.inner.ReadAt(p, b, off)
	h.pr.end(m, h.inner.Path())
	return n, err
}

func (h *timedHandle) WriteAt(p *vtime.Proc, b []byte, off int64) (int, error) {
	m := h.pr.begin(p)
	n, err := h.inner.WriteAt(p, b, off)
	h.pr.end(m, h.inner.Path())
	return n, err
}

func (h *timedHandle) Close(p *vtime.Proc) error {
	m := h.pr.begin(p)
	err := h.inner.Close(p)
	h.pr.end(m, h.inner.Path())
	return err
}

func (h *vectorHandle) ReadAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	m := h.pr.begin(p)
	n, err := h.v.ReadAtV(p, vecs)
	h.pr.end(m, h.inner.Path())
	return n, err
}

func (h *vectorHandle) WriteAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	m := h.pr.begin(p)
	n, err := h.v.WriteAtV(p, vecs)
	h.pr.end(m, h.inner.Path())
	return n, err
}
