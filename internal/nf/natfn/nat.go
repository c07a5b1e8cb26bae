// Package natfn implements the NAT benchmark function: source network
// address and port translation backed by a bounded translation table with
// LRU eviction, configured with 1K or 10K entries as in Table IV.
package natfn

import (
	"encoding/binary"
	"errors"
	"math/rand"

	"halsim/internal/nf"
)

// Request layout (12 bytes, big endian):
//
//	srcIP[4] srcPort[2] dstIP[4] dstPort[2]
//
// Response layout (12 bytes): extIP[4] extPort[2] dstIP[4] dstPort[2].
const reqLen = 12

// ErrBadRequest reports a payload shorter than a NAT tuple.
var ErrBadRequest = errors.New("natfn: request shorter than 12 bytes")

// ErrPortsExhausted reports that no external port was free for a new
// translation. A real NAT drops the packet rather than crashing the
// dataplane; the function does the same and counts it in Dropped.
var ErrPortsExhausted = errors.New("natfn: port space exhausted")

type flowKey struct {
	ip   uint32
	port uint16
}

type entry struct {
	key     flowKey
	extPort uint16
	// intrusive LRU list
	prev, next *entry
}

// Table is a source-NAT translation table with a fixed capacity and LRU
// eviction. It is the function's shared state.
type Table struct {
	extIP    uint32
	capacity int
	entries  map[flowKey]*entry
	byExt    map[uint16]*entry
	nextPort uint16
	// LRU sentinel: head.next is most recent, head.prev least recent.
	head entry

	// Counters for tests and reporting.
	Hits, Misses, Evictions uint64
	// dropped counts translations refused because the port space was
	// exhausted — the graceful-degradation path of a full NAT.
	dropped uint64
}

// NewTable returns a table translating to extIP with the given capacity.
func NewTable(extIP uint32, capacity int) *Table {
	if capacity <= 0 {
		panic("natfn: capacity must be positive")
	}
	// The maps grow with the live flows instead of being presized to
	// capacity: a table that never translates costs two empty maps.
	// Eviction order comes from the LRU list, never from map iteration.
	t := &Table{
		extIP:    extIP,
		capacity: capacity,
		entries:  make(map[flowKey]*entry),
		byExt:    make(map[uint16]*entry),
		nextPort: 1024,
	}
	t.head.prev = &t.head
	t.head.next = &t.head
	return t
}

func (t *Table) touch(e *entry) {
	// unlink
	e.prev.next = e.next
	e.next.prev = e.prev
	// insert at head
	e.next = t.head.next
	e.prev = &t.head
	t.head.next.prev = e
	t.head.next = e
}

func (t *Table) evictOldest() {
	old := t.head.prev
	if old == &t.head {
		return
	}
	old.prev.next = &t.head
	t.head.prev = old.prev
	delete(t.entries, old.key)
	delete(t.byExt, old.extPort)
	t.Evictions++
}

// allocPort finds a free external port, skipping ones still mapped. ok is
// false when every usable port is taken — the caller drops the packet
// instead of crashing the dataplane.
func (t *Table) allocPort() (p uint16, ok bool) {
	for i := 0; i < 65536; i++ {
		p := t.nextPort
		t.nextPort++
		if t.nextPort == 0 {
			t.nextPort = 1024
		}
		if p < 1024 {
			continue
		}
		if _, used := t.byExt[p]; !used {
			return p, true
		}
	}
	return 0, false
}

// Translate maps an internal (ip, port) flow to its external port,
// allocating (and evicting, if full) as needed. ok is false when the port
// space was exhausted; the packet should be dropped (counted in Dropped).
func (t *Table) Translate(ip uint32, port uint16) (extIP uint32, extPort uint16, ok bool) {
	k := flowKey{ip, port}
	if e, ok := t.entries[k]; ok {
		t.Hits++
		t.touch(e)
		return t.extIP, e.extPort, true
	}
	t.Misses++
	if len(t.entries) >= t.capacity {
		t.evictOldest()
	}
	p, ok := t.allocPort()
	if !ok {
		t.dropped++
		return 0, 0, false
	}
	e := &entry{key: k, extPort: p}
	t.entries[k] = e
	t.byExt[e.extPort] = e
	// link at head
	e.next = t.head.next
	e.prev = &t.head
	t.head.next.prev = e
	t.head.next = e
	return t.extIP, e.extPort, true
}

// Dropped returns how many translations were refused for lack of a free
// external port.
func (t *Table) Dropped() uint64 { return t.dropped }

// Reverse resolves an external port back to the internal flow, as the
// return path would.
func (t *Table) Reverse(extPort uint16) (ip uint32, port uint16, ok bool) {
	e, ok := t.byExt[extPort]
	if !ok {
		return 0, 0, false
	}
	return e.key.ip, e.key.port, true
}

// Len returns the live entry count.
func (t *Table) Len() int { return len(t.entries) }

// Func is the NAT network function.
type Func struct {
	table *Table
}

// NewFunc returns a NAT function with the given table capacity.
func NewFunc(capacity int) *Func {
	return &Func{table: NewTable(0x0A000001 /* 10.0.0.1 */, capacity)}
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.NAT }

// Table exposes the translation table (tests, state inspection).
func (f *Func) Table() *Table { return f.table }

// Process translates the source tuple of the request and echoes the
// translated 12-byte tuple.
func (f *Func) Process(req []byte) ([]byte, error) {
	if len(req) < reqLen {
		return nil, ErrBadRequest
	}
	srcIP := binary.BigEndian.Uint32(req[0:4])
	srcPort := binary.BigEndian.Uint16(req[4:6])
	extIP, extPort, ok := f.table.Translate(srcIP, srcPort)
	if !ok {
		return nil, ErrPortsExhausted
	}
	resp := make([]byte, reqLen)
	binary.BigEndian.PutUint32(resp[0:4], extIP)
	binary.BigEndian.PutUint16(resp[4:6], extPort)
	copy(resp[6:12], req[6:12])
	return resp, nil
}

// gen emits NAT requests over a bounded flow population so the table
// exercises both hits and misses.
type gen struct {
	flows int
	fill  []byte
}

func (g gen) Next(rng *rand.Rand) []byte { return g.NextInto(rng, nil) }

// NextInto implements nf.RequestGenInto: every byte of the returned slice
// is written, so recycled buffers yield the identical request stream.
func (g gen) NextInto(rng *rand.Rand, buf []byte) []byte {
	b := nf.Reserve(buf, reqLen+len(g.fill))
	flow := rng.Intn(g.flows)
	binary.BigEndian.PutUint32(b[0:4], 0xC0A80000|uint32(flow>>8)) // 192.168.x.x
	binary.BigEndian.PutUint16(b[4:6], uint16(1024+flow&0xff))
	binary.BigEndian.PutUint32(b[6:10], 0x08080808)
	binary.BigEndian.PutUint16(b[10:12], 443)
	copy(b[reqLen:], g.fill)
	return b
}

func factory(config string) (nf.Function, nf.RequestGen, error) {
	capacity := 1024
	switch config {
	case "", "1k":
		capacity = 1024
	case "10k":
		capacity = 10240
	}
	f := NewFunc(capacity)
	return f, gen{flows: capacity * 2}, nil
}

func init() { nf.Register(nf.NAT, factory, "1k", "10k") }
