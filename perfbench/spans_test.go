package main

import (
	"strings"
	"testing"
	"time"
)

const us = time.Microsecond

func TestCoverageMergesOverlapsAndClips(t *testing.T) {
	ivs := []interval{{5 * us, 8 * us}, {0, 2 * us}, {1 * us, 3 * us}, {7 * us, 12 * us}}
	if got := coverage(ivs, 0, 10*us); got != 8*us {
		t.Errorf("coverage = %v, want 8µs ([0,3) + [5,10))", got)
	}
	if got := coverage(nil, 0, 10*us); got != 0 {
		t.Errorf("empty coverage = %v", got)
	}
}

// record adds a span to a tracer that is on; a client call is its own
// request, as the rank loop records it.
func record(tr *tracer, s span) uint64 {
	tr.on.Store(true)
	if s.Layer == layerCall {
		s.ID = tr.newID()
		s.Req = s.ID
	}
	return tr.add(s)
}

// A wire request as the traced stack records it: the client call, then
// on the server the pricer, a qos grant (an event, not a span) and the
// device call.
func TestLinkPlacesServerSpansUnderTheirCall(t *testing.T) {
	tr := newTracer(100)
	root := tr.newID()
	call := record(tr, span{Parent: root, Layer: layerCall, Start: 10 * us, End: 100 * us, path: "f"})
	record(tr, span{Layer: layerPrice, Start: 20 * us, End: 25 * us})
	record(tr, span{Layer: layerDevice, Start: 60 * us, End: 70 * us, path: "f", vtime: 7 * time.Second})
	// A second rank's call on another file, overlapping in time.
	other := record(tr, span{Parent: root, Layer: layerCall, Start: 15 * us, End: 90 * us, path: "g"})
	record(tr, span{Layer: layerPrice, Start: 26 * us, End: 29 * us})
	record(tr, span{Layer: layerDevice, Start: 40 * us, End: 45 * us, path: "g", vtime: 3 * time.Second})
	record(tr, span{ID: root, Layer: layerRank, Start: 0, End: 120 * us})

	grants := []grant{
		{path: "f", at: 7 * time.Second, wait: 35 * us}, // queued 25-60
		{path: "g", at: 3 * time.Second, wait: 11 * us}, // queued 29-40
	}
	if orphans := tr.link(grants); orphans != 0 {
		t.Fatalf("orphans = %d, want 0", orphans)
	}
	parents := map[string][]uint64{}
	for _, s := range tr.all {
		parents[s.Layer] = append(parents[s.Layer], s.Parent)
	}
	for _, l := range []string{layerPrice, layerDevice, layerQoS} {
		if len(parents[l]) != 2 {
			t.Fatalf("%s spans: %v", l, parents[l])
		}
	}
	for _, s := range tr.all {
		if s.Layer == layerDevice || s.Layer == layerQoS || s.Layer == layerPrice {
			want := call
			if s.path == "g" || (s.Layer == layerPrice && s.Start == 26*us) {
				want = other
			}
			if s.Parent != want || s.Req != want {
				t.Errorf("%s span %v-%v: parent %d req %d, want %d", s.Layer, s.Start, s.End, s.Parent, s.Req, want)
			}
		}
	}

	// Call f: 90µs, children cover price 20-25, qos 25-60, device
	// 60-70, so 40µs of self time.  Call g: 75µs minus price 26-29,
	// qos 29-40, device 40-45 = 56µs.
	self := tr.selfTimes(layerCall)
	if len(self) != 2 || self[0]+self[1] != 96*us {
		t.Errorf("srbnet self times = %v, want 40µs and 56µs", self)
	}

	bg := tr.budget(0)
	if bg.Total != 120*us || bg.Calls != 2 {
		t.Fatalf("budget total %v over %d calls", bg.Total, bg.Calls)
	}
	var sum time.Duration
	for _, d := range bg.Layer {
		sum += d
	}
	if sum+bg.Unaccounted != bg.Total {
		t.Errorf("layers %v + unaccounted %v != total %v", sum, bg.Unaccounted, bg.Total)
	}
	// The rank was inside some call from 10µs to 100µs; before and
	// after is the loop's own, unaccounted time.
	if bg.Unaccounted != 30*us {
		t.Errorf("unaccounted = %v, want 30µs", bg.Unaccounted)
	}
	// Innermost first: device [40,45)+[60,70); qos the rest of
	// [25,60); pricing only [20,25), the rest of it being under qos.
	if bg.Layer[layerDevice] != 15*us || bg.Layer[layerQoS] != 30*us || bg.Layer[layerPrice] != 5*us {
		t.Errorf("device %v qos %v price %v, want 15, 30 and 5µs", bg.Layer[layerDevice], bg.Layer[layerQoS], bg.Layer[layerPrice])
	}
	if !strings.Contains(bg.table("test"), "unaccounted") {
		t.Error("budget table lacks the unaccounted row")
	}
}

func TestLinkCountsOrphans(t *testing.T) {
	tr := newTracer(100)
	record(tr, span{Layer: layerDevice, Start: 1 * us, End: 2 * us, path: "nobody"})
	record(tr, span{Layer: layerPrice, Start: 1 * us, End: 2 * us})
	if got := tr.link([]grant{{path: "x", at: time.Second}}); got != 3 {
		t.Errorf("orphans = %d, want 3 (device, price, grant)", got)
	}
}

func TestTracerRecordsOnlyWhileOnAndUpToItsLimit(t *testing.T) {
	tr := newTracer(2)
	tr.add(span{Layer: layerCall})
	tr.on.Store(true)
	for i := 0; i < 3; i++ {
		tr.add(span{Layer: layerCall})
	}
	tr.link(nil)
	if len(tr.all) != 2 || tr.dropped.Load() != 1 {
		t.Errorf("kept %d spans, dropped %d; want 2 and 1", len(tr.all), tr.dropped.Load())
	}
}
