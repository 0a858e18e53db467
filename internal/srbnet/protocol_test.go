package srbnet

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/srb"
	"repro/internal/storage"
)

// TestWireErrorCodes pins every error code's wire value and checks that
// an error wrapping each sentinel survives an encode→decode round trip
// with its code, its message and errors.Is intact.
func TestWireErrorCodes(t *testing.T) {
	for _, tc := range []struct {
		code     errCode
		wire     uint8
		sentinel error // nil: no sentinel travels with the code
	}{
		{errNone, 0, nil},
		{errNotExist, 1, storage.ErrNotExist},
		{errExist, 2, storage.ErrExist},
		{errReadOnly, 3, storage.ErrReadOnly},
		{errClosed, 4, storage.ErrClosed},
		{errDown, 5, storage.ErrDown},
		{errCapacity, 6, storage.ErrCapacity},
		{errBadPath, 7, storage.ErrBadPath},
		{errAuth, 8, srb.ErrAuth},
		{errNoResource, 9, srb.ErrNoResource},
		{errOverload, 10, storage.ErrOverload},
		{errOther, 11, nil},
		{errWrongShard, 12, ErrWrongShard},
	} {
		if uint8(tc.code) != tc.wire {
			t.Errorf("code %d: wire value %d, want %d", tc.code, uint8(tc.code), tc.wire)
		}
		if tc.sentinel == nil || tc.code == errWrongShard {
			continue
		}
		err := fmt.Errorf("op on /x: %w", tc.sentinel)
		code, msg := encodeErr(err)
		if code != tc.code || msg != err.Error() {
			t.Errorf("encodeErr(%v) = %d, %q; want %d, %q", err, code, msg, tc.code, err.Error())
		}
		got := decodeErr(code, msg)
		if !errors.Is(got, tc.sentinel) || got.Error() != err.Error() {
			t.Errorf("decodeErr(%d) = %v; want errors.Is %v with the server's message", code, got, tc.sentinel)
		}
	}

	if code, msg := encodeErr(nil); code != errNone || msg != "" || decodeErr(code, msg) != nil {
		t.Errorf("nil error encodes as %d, %q", code, msg)
	}

	code, msg := encodeErr(fmt.Errorf("route: %w", &WrongShardError{Addr: "10.0.0.2:5544"}))
	var ws *WrongShardError
	if got := decodeErr(code, msg); code != errWrongShard || !errors.As(got, &ws) ||
		ws.Addr != "10.0.0.2:5544" || !errors.Is(got, ErrWrongShard) {
		t.Errorf("redirect round trip: code %d msg %q → %v", code, msg, got)
	}

	other := errors.New("disk on fire")
	code, msg = encodeErr(other)
	got := decodeErr(code, msg)
	if code != errOther || got.Error() != "disk on fire" {
		t.Errorf("unclassified error: code %d → %v", code, got)
	}
	for _, c := range errCodes {
		if errors.Is(got, c.sentinel) {
			t.Errorf("unclassified error decodes as %v", c.sentinel)
		}
	}
	if got := decodeErr(errOther, ""); got.Error() != "srbnet: remote error" {
		t.Errorf("empty errOther message decodes as %q", got)
	}
}
