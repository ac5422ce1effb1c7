package fsm

import (
	"bytes"
	"errors"
	"testing"

	"modelir/internal/canon"
)

func TestMachineCanonicalRoundTrip(t *testing.T) {
	m := FireAnts()
	enc := m.AppendCanonical(nil)
	r := canon.NewReader(enc)
	got, err := DecodeCanonical(r)
	if err != nil {
		t.Fatalf("DecodeCanonical: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("decode left %d bytes", r.Remaining())
	}
	if !machinesEqual(m, got) {
		t.Fatal("decoded machine not structurally equal")
	}
	if !bytes.Equal(got.AppendCanonical(nil), enc) {
		t.Fatal("re-encoded machine differs from original encoding")
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeCanonical(canon.NewReader(enc[:n])); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestDecodeCanonicalRejectsCorruptMachine(t *testing.T) {
	enc := FireAnts().AppendCanonical(nil)
	cases := map[string]func([]byte) []byte{
		"accept byte outside {0,1}": func(b []byte) []byte {
			// Accept flags sit right after the 8-byte start index.
			// Locate them by decoding the prefix structurally.
			i := acceptOffset(t, b)
			b[i] = 7
			return b
		},
		"start out of range": func(b []byte) []byte {
			i := acceptOffset(t, b) - 1 // low byte of start
			b[i] = 200
			return b
		},
		"transition out of range": func(b []byte) []byte {
			b[len(b)-1] = 250 // low byte of the last transition target
			return b
		},
	}
	for name, mutate := range cases {
		b := mutate(append([]byte(nil), enc...))
		if _, err := DecodeCanonical(canon.NewReader(b)); !errors.Is(err, canon.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// acceptOffset returns the byte offset of the first accept flag in a
// canonical machine encoding by walking the framing.
func acceptOffset(t *testing.T, b []byte) int {
	t.Helper()
	r := canon.NewReader(b)
	if err := r.Expect("FS"); err != nil {
		t.Fatal(err)
	}
	ne, err := r.Count(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ne; i++ {
		if _, err := r.String(); err != nil {
			t.Fatal(err)
		}
	}
	ns, err := r.Count(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ns; i++ {
		if _, err := r.String(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Uint(); err != nil { // start
		t.Fatal(err)
	}
	return len(b) - r.Remaining()
}

// machinesEqual reports whether two machines are structurally
// identical: same alphabet, state count, start, accepting flags and
// transitions under the same numbering.
func machinesEqual(a, b *Machine) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NumStates() != b.NumStates() || a.NumEvents() != b.NumEvents() || a.start != b.start {
		return false
	}
	for i, n := range a.alphabet {
		if b.alphabet[i] != n {
			return false
		}
	}
	for s := range a.accept {
		if a.accept[s] != b.accept[s] {
			return false
		}
	}
	for i, to := range a.trans {
		if b.trans[i] != to {
			return false
		}
	}
	return true
}
