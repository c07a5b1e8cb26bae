package packet

import (
	"reflect"
	"testing"
)

// testAddr builds a distinct endpoint identity from a single byte.
func testAddr(n byte) Addr {
	return Addr{MAC: MAC{0x02, 0, 0, 0, 0, n}, IP: IPv4{10, 0, 0, n}}
}

func TestPoolReuseLIFO(t *testing.T) {
	pl := NewPool()
	a := pl.Get(testAddr(1), testAddr(2), 4000, 9000, nil)
	b := pl.Get(testAddr(1), testAddr(2), 4001, 9000, nil)
	if pl.News != 2 || pl.Reused != 0 {
		t.Fatalf("News=%d Reused=%d, want 2/0", pl.News, pl.Reused)
	}
	pl.Put(a)
	pl.Put(b)
	// LIFO: the most recently released struct comes back first — this is
	// what makes reuse order a pure function of the event sequence.
	c := pl.Get(testAddr(3), testAddr(4), 4002, 9000, nil)
	d := pl.Get(testAddr(3), testAddr(4), 4003, 9000, nil)
	if c != b || d != a {
		t.Fatal("reuse is not LIFO")
	}
	if pl.News != 2 || pl.Reused != 2 || pl.Released != 2 {
		t.Fatalf("News=%d Reused=%d Released=%d, want 2/2/2", pl.News, pl.Reused, pl.Released)
	}
}

func TestPoolGetResetsState(t *testing.T) {
	pl := NewPool()
	p := pl.Get(testAddr(1), testAddr(2), 1111, 2222, []byte("payload"))
	p.ID = 99
	p.FnTag = 3
	p.CreatedAt = 12345
	p.WireLen = 1500
	pl.Put(p)
	if p.Payload != nil {
		t.Fatal("Put must drop the payload reference")
	}
	q := pl.Get(testAddr(9), testAddr(8), 3333, 4444, nil)
	if q != p {
		t.Fatal("expected the released struct back")
	}
	if q.ID != 0 || q.FnTag != 0 || q.CreatedAt != 0 || q.Payload != nil {
		t.Fatalf("reused packet carries stale state: %+v", q)
	}
	if q.Src.IP != (IPv4{10, 0, 0, 9}) || q.SrcPort != 3333 {
		t.Fatalf("reused packet not reinitialized: %+v", q)
	}
}

// TestPoolGetClearsReqLen: a response's request length must not leak into
// the next packet built on the same struct, where a receiver would count
// a stale request's bytes.
func TestPoolGetClearsReqLen(t *testing.T) {
	pl := NewPool()
	resp := pl.Get(testAddr(1), testAddr(2), 9000, 4000, nil)
	resp.ReqLen = 1500
	pl.Put(resp)
	q := pl.Get(testAddr(1), testAddr(2), 9000, 4001, nil)
	if q != resp {
		t.Fatal("expected the released struct back")
	}
	if q.ReqLen != 0 {
		t.Fatalf("reused packet carries ReqLen %d", q.ReqLen)
	}
}

// TestPoolGetReinitialisesEveryField dirties every field of a packet,
// recycles it, and requires Get to hand back exactly what New builds from
// the same arguments. A field added to Packet that init does not write
// fails here.
func TestPoolGetReinitialisesEveryField(t *testing.T) {
	pl := NewPool()
	p := pl.Get(testAddr(1), testAddr(2), 1111, 2222, []byte("old"))
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		fillNonZero(t, v.Field(i))
		if v.Field(i).IsZero() {
			t.Fatalf("field %s left zero", v.Type().Field(i).Name)
		}
	}
	pl.Put(p)
	payload := []byte("new payload")
	q := pl.Get(testAddr(7), testAddr(8), 3333, 4444, payload)
	if q != p {
		t.Fatal("expected the released struct back")
	}
	if want := New(testAddr(7), testAddr(8), 3333, 4444, payload); !reflect.DeepEqual(q, want) {
		t.Fatalf("recycled packet %+v, want %+v", *q, *want)
	}
}

// fillNonZero sets v, and everything inside it, to a non-zero value.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0))
	default:
		t.Fatalf("fillNonZero: no non-zero value for kind %s", v.Kind())
	}
}

func TestPoolLiveAccounting(t *testing.T) {
	pl := NewPool()
	a := pl.Get(testAddr(1), testAddr(2), 1, 2, nil)
	b := pl.Get(testAddr(1), testAddr(2), 3, 4, nil)
	if pl.Live() != 2 {
		t.Fatalf("Live = %d, want 2", pl.Live())
	}
	pl.Put(a)
	if pl.Live() != 1 {
		t.Fatalf("Live = %d, want 1", pl.Live())
	}
	pl.Put(b)
	if pl.Live() != 0 {
		t.Fatalf("Live = %d, want 0", pl.Live())
	}
}

func TestNilPoolDegradesToNew(t *testing.T) {
	var pl *Pool
	p := pl.Get(testAddr(1), testAddr(2), 10, 20, []byte("x"))
	if p == nil || p.SrcPort != 10 || string(p.Payload) != "x" {
		t.Fatalf("nil pool Get broken: %+v", p)
	}
	pl.Put(p)   // no-op, must not panic
	pl.Put(nil) // ditto
	NewPool().Put(nil)
}

// TestPoolGetReuseAllocationFree pins the pooled path at zero allocations
// once the free-list is warm.
func TestPoolGetReuseAllocationFree(t *testing.T) {
	pl := NewPool()
	pl.Put(pl.Get(testAddr(1), testAddr(2), 1, 2, nil)) // warm the free-list
	if avg := testing.AllocsPerRun(200, func() {
		pl.Put(pl.Get(testAddr(3), testAddr(4), 7, 8, nil))
	}); avg != 0 {
		t.Fatalf("warm Get/Put allocates %v per cycle, want 0", avg)
	}
}
