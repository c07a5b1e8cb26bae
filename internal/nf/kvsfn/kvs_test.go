package kvsfn

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"halsim/internal/rng"
)

// Encode builds a request payload.
func Encode(op byte, key, value []byte) []byte {
	b := make([]byte, 3+len(key)+len(value))
	b[0] = op
	binary.BigEndian.PutUint16(b[1:3], uint16(len(key)))
	copy(b[3:], key)
	copy(b[3+len(key):], value)
	return b
}

func TestReadMissThenInsertThenRead(t *testing.T) {
	f := NewFunc()
	resp, err := f.Process(Encode(OpRead, []byte("k"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != StatusNotFound {
		t.Fatalf("read miss status = %d", resp[0])
	}
	resp, err = f.Process(Encode(OpInsert, []byte("k"), []byte("v1")))
	if err != nil || resp[0] != StatusOK {
		t.Fatalf("insert: %v %v", resp, err)
	}
	resp, err = f.Process(Encode(OpRead, []byte("k"), nil))
	if err != nil || resp[0] != StatusOK || !bytes.Equal(resp[1:], []byte("v1")) {
		t.Fatalf("read: %v %v", resp, err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	f := NewFunc()
	f.Process(Encode(OpInsert, []byte("k"), []byte("a")))
	resp, _ := f.Process(Encode(OpInsert, []byte("k"), []byte("b")))
	if resp[0] != StatusExists {
		t.Fatalf("duplicate insert status = %d", resp[0])
	}
	got, _ := f.Store().Get("k")
	if !bytes.Equal(got, []byte("a")) {
		t.Fatal("duplicate insert must not overwrite")
	}
}

func TestWriteOverwritesAndBumpsVersion(t *testing.T) {
	f := NewFunc()
	f.Process(Encode(OpWrite, []byte("k"), []byte("a")))
	f.Process(Encode(OpWrite, []byte("k"), []byte("b")))
	got, ok := f.Store().Get("k")
	if !ok || !bytes.Equal(got, []byte("b")) {
		t.Fatal("write should overwrite")
	}
	if f.Store().Version("k") != 2 {
		t.Fatalf("version = %d, want 2", f.Store().Version("k"))
	}
	if f.Store().Version("nope") != 0 {
		t.Fatal("unknown key version should be 0")
	}
}

func TestMalformed(t *testing.T) {
	f := NewFunc()
	if _, err := f.Process([]byte{1}); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	if _, err := f.Process(Encode(0x7F, []byte("k"), nil)); err != ErrBadOp {
		t.Fatalf("bad op: %v", err)
	}
	// Declared key length overruns the buffer.
	bad := []byte{OpRead, 0xFF, 0xFF, 'k'}
	if _, err := f.Process(bad); err != ErrKeyRange {
		t.Fatalf("key range: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := NewFunc()
	prop := func(key, value []byte) bool {
		if len(key) > 1000 {
			key = key[:1000]
		}
		f.Process(Encode(OpWrite, key, value))
		resp, err := f.Process(Encode(OpRead, key, nil))
		if err != nil || resp[0] != StatusOK {
			return false
		}
		return bytes.Equal(resp[1:], value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueIsolation(t *testing.T) {
	f := NewFunc()
	val := []byte("mutable")
	f.Process(Encode(OpWrite, []byte("k"), val))
	val[0] = 'X'
	got, _ := f.Store().Get("k")
	if got[0] != 'm' {
		t.Fatal("store must copy values, not alias caller buffers")
	}
}

func TestStateLines(t *testing.T) {
	f := NewFunc()
	read := f.StateLines(Encode(OpRead, []byte("k"), nil))
	write := f.StateLines(Encode(OpWrite, []byte("k"), []byte("v")))
	if len(read) != 1 || len(write) != 2 {
		t.Fatalf("read lines %v, write lines %v", read, write)
	}
	if read[0] != write[0] {
		t.Fatal("same key should hash to the same line")
	}
	if f.StateLines([]byte{1}) != nil {
		t.Fatal("malformed request should have no state lines")
	}
}

func TestCounters(t *testing.T) {
	f := NewFunc()
	f.Process(Encode(OpInsert, []byte("a"), []byte("1")))
	f.Process(Encode(OpWrite, []byte("a"), []byte("2")))
	f.Process(Encode(OpRead, []byte("a"), nil))
	s := f.Store()
	if s.Inserts != 1 || s.Writes != 1 || s.Reads != 1 || s.Len() != 1 {
		t.Fatalf("counters: %+v len=%d", s, s.Len())
	}
}

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "small", "large"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(4, rng.Payload, 0)
		for i := 0; i < 100; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkRead(b *testing.B) {
	f := NewFunc()
	f.Process(Encode(OpWrite, []byte("key00001"), make([]byte, 64)))
	req := Encode(OpRead, []byte("key00001"), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(req); err != nil {
			b.Fatal(err)
		}
	}
}
