// Package kvsfn implements the KVS benchmark function: an in-memory
// key-value store with read, write, and insert operations (Table IV, after
// SILT). The store is the canonical stateful function — its database is
// exactly the state the CXL-SNIC discussion of §V-C worries about.
package kvsfn

import (
	"encoding/binary"
	"errors"

	"halsim/internal/nf"
	"halsim/internal/rng"
)

// Op codes carried in the first request byte.
const (
	OpRead   = 0x01
	OpWrite  = 0x02
	OpInsert = 0x03
)

// Request layout:
//
//	op[1] keyLen[2] key[keyLen] value[rest]   (value empty for reads)
//
// Response layout:
//
//	status[1] value[...]
//
// Status codes:
const (
	StatusOK       = 0x00
	StatusNotFound = 0x01
	StatusExists   = 0x02
)

// Errors for malformed requests.
var (
	ErrShort    = errors.New("kvsfn: request too short")
	ErrBadOp    = errors.New("kvsfn: unknown op")
	ErrKeyRange = errors.New("kvsfn: key length exceeds request")
)

// Store is a hash-map KV store with simple per-key versioning, so tests
// can observe write ordering the way a coherence check would.
type Store struct {
	data     map[string][]byte
	versions map[string]uint64

	Reads, Writes, Inserts uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string][]byte), versions: make(map[string]uint64)}
}

// Get returns the value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	v, ok := s.data[key]
	s.Reads++
	return v, ok
}

// Put stores value under key (insert-or-update) and bumps its version.
func (s *Store) Put(key string, value []byte) {
	s.data[key] = append([]byte(nil), value...)
	s.versions[key]++
	s.Writes++
}

// Insert stores value only if key is absent; reports whether it inserted.
func (s *Store) Insert(key string, value []byte) bool {
	if _, exists := s.data[key]; exists {
		return false
	}
	s.data[key] = append([]byte(nil), value...)
	s.versions[key] = 1
	s.Inserts++
	return true
}

// Version returns key's write version (0 if never written).
func (s *Store) Version(key string) uint64 { return s.versions[key] }

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.data) }

// Func is the KVS network function.
type Func struct {
	store *Store
}

// NewFunc returns a KVS function over a fresh store.
func NewFunc() *Func { return &Func{store: NewStore()} }

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.KVS }

// Store exposes the backing store.
func (f *Func) Store() *Store { return f.store }

func parse(req []byte) (op byte, key, value []byte, err error) {
	if len(req) < 3 {
		return 0, nil, nil, ErrShort
	}
	op = req[0]
	kl := int(binary.BigEndian.Uint16(req[1:3]))
	if 3+kl > len(req) {
		return 0, nil, nil, ErrKeyRange
	}
	return op, req[3 : 3+kl], req[3+kl:], nil
}

// Process executes one KVS operation.
func (f *Func) Process(req []byte) ([]byte, error) {
	op, key, value, err := parse(req)
	if err != nil {
		return nil, err
	}
	switch op {
	case OpRead:
		v, ok := f.store.Get(string(key))
		if !ok {
			return []byte{StatusNotFound}, nil
		}
		return append([]byte{StatusOK}, v...), nil
	case OpWrite:
		f.store.Put(string(key), value)
		return []byte{StatusOK}, nil
	case OpInsert:
		if f.store.Insert(string(key), value) {
			return []byte{StatusOK}, nil
		}
		return []byte{StatusExists}, nil
	default:
		return nil, ErrBadOp
	}
}

// StateLines implements nf.StateFunction: a request touches the hash line
// of its key (plus a second line for the value on mutation).
func (f *Func) StateLines(req []byte) []uint64 {
	op, key, _, err := parse(req)
	if err != nil {
		return nil
	}
	h := fnv64(key)
	lines := []uint64{h % (1 << 18)}
	if op != OpRead {
		lines = append(lines, (h>>18)%(1<<18))
	}
	return lines
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// gen emits a read-heavy mix over a fixed key population: each request
// draws its key, then its op, then a write's or insert's value bytes.
type gen struct {
	keys    int
	valSize int
}

// keyLen is the generator's key size: 8 zero bytes, then the key index.
const keyLen = 16

// drawOp draws a request's op after its key draw.
func drawOp(rng *rng.Rand) byte {
	switch r := rng.Intn(100); {
	case r < 80: // read-heavy, as the paper's KVS workload
		return OpRead
	case r < 95:
		return OpWrite
	default:
		return OpInsert
	}
}

// valLen is the value size a request with op carries.
func (g gen) valLen(op byte) int {
	if op == OpRead {
		return 0
	}
	return g.valSize
}

// NextLen implements nf.RequestGen: it replays the key and op draws.
func (g gen) NextLen(rng *rng.Rand) int {
	rng.Intn(g.keys)
	return 3 + keyLen + g.valLen(drawOp(rng))
}

// NextInto implements nf.RequestGen.
func (g gen) NextInto(rng *rng.Rand, buf []byte) []byte {
	key := uint64(rng.Intn(g.keys))
	op := drawOp(rng)
	b := nf.Reserve(buf, 3+keyLen+g.valLen(op))
	b[0] = op
	binary.BigEndian.PutUint16(b[1:3], keyLen)
	clear(b[3 : 3+keyLen-8])
	binary.BigEndian.PutUint64(b[3+keyLen-8:], key)
	rng.Read(b[3+keyLen:])
	return b
}

// New builds a KVS function and its request generator. config "" or
// "small" selects 64-byte values, "large" 512-byte ones.
func New(config string) (nf.Function, nf.RequestGen, error) {
	valSize := 64
	if config == "large" {
		valSize = 512
	}
	return NewFunc(), gen{keys: 1 << 16, valSize: valSize}, nil
}
