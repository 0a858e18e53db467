package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/vtime"
)

// optional reports which optional interfaces a backend, its sessions
// and its handles implement.
func optional(t *testing.T, be storage.Backend, file string) [3]bool {
	t.Helper()
	p := vtime.NewVirtual().NewProc("probe")
	sess, err := be.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(p)
	h, err := sess.Open(p, file, storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(p)
	_, outage := be.(storage.Outage)
	_, whole := sess.(storage.WholeFiler)
	_, vector := h.(storage.VectorHandle)
	return [3]bool{outage, whole, vector}
}

// The wrappers must expose exactly the fast paths the wrapped value
// has, so a caller that type-asserts takes the same path either way.
func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	st, err := newStack(stackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	client := st.client("astro3d", diskResource, storage.KindRemoteDisk)
	defer client.Close()
	tr := newTracer(1 << 10)
	for b, be := range []storage.Backend{st.rdisk, st.rtape, client} {
		bare := optional(t, be, fmt.Sprintf("probe/%d/bare", b))
		for i, pr := range []probe{newLatencyProbe(), &spanProbe{tr: tr, layer: layerDevice}} {
			if got := optional(t, wrapBackend(be, pr), fmt.Sprintf("probe/%d/wrapped%d", b, i)); got != bare {
				t.Errorf("%s: wrapped exposes Outage/WholeFiler/VectorHandle %v, bare %v", be.Name(), got, bare)
			}
		}
	}
}

// A traced astro3d_wire run — every client call, device call and
// pricing call wrapped — must do exactly what a run with nothing
// wrapped does: same simulated I/O time, same checksum.
func TestWrappedAstroRunMatchesBare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Astro3D twice")
	}
	dir := t.TempDir()
	bare, err := astroOnce("bare", filepath.Join(dir, "bare"), astroBare, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(spanLimit)
	traced, err := astroOnce("traced", filepath.Join(dir, "traced"), astroTraced, tr)
	if err != nil {
		t.Fatal(err)
	}
	if bare.out.ioVirt != traced.out.ioVirt || bare.out.checksum != traced.out.checksum {
		t.Errorf("bare run: io_virt %v checksum %x; traced run: io_virt %v checksum %x",
			bare.out.ioVirt, bare.out.checksum, traced.out.ioVirt, traced.out.checksum)
	}
	if err := traced.out.check(bare.out); err != nil {
		t.Error(err)
	}
	if tr.count.Load() == 0 {
		t.Error("the traced run recorded no spans")
	}
}
