// Package nf defines the network-function abstraction shared by the ten
// benchmark functions of the paper (Table IV) and the registry the
// simulator and examples use to look them up.
//
// Functions are functionally real: Process consumes request payload bytes
// and produces response payload bytes (a NAT really translates, REM really
// matches patterns, the compressor really compresses). How fast a function
// runs on a given processor is a separate concern owned by
// internal/platform.
package nf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"halsim/internal/rng"
)

// ID enumerates the benchmark functions.
type ID int

const (
	KVS ID = iota
	Count
	EMA
	NAT
	BM25
	KNN
	Bayes
	REM
	Crypto
	Comp
	numIDs
)

// All lists every function ID in the paper's presentation order.
var All = []ID{KVS, Count, EMA, NAT, BM25, KNN, Bayes, REM, Crypto, Comp}

var idNames = [...]string{
	KVS:    "KVS",
	Count:  "Count",
	EMA:    "EMA",
	NAT:    "NAT",
	BM25:   "BM25",
	KNN:    "KNN",
	Bayes:  "Bayes",
	REM:    "REM",
	Crypto: "Crypto",
	Comp:   "Comp",
}

func (id ID) String() string {
	if id < 0 || id >= numIDs {
		return fmt.Sprintf("nf(%d)", int(id))
	}
	return idNames[id]
}

// ParseID resolves a function name, ignoring case ("NAT", "nat", "Nat").
func ParseID(name string) (ID, error) {
	for i, n := range idNames {
		if strings.EqualFold(n, name) {
			return ID(i), nil
		}
	}
	return 0, fmt.Errorf("nf: unknown function %q", name)
}

// Stateful reports whether the function keeps cross-packet state that both
// processors would need to share for cooperative processing (Table IV
// marks KVS, Count, EMA, and Comp as stateful; Comp is stateful per-file).
func (id ID) Stateful() bool {
	switch id {
	case KVS, Count, EMA, Comp:
		return true
	}
	return false
}

// Function is one network function instance. Implementations live in the
// subpackages of internal/nf. Process must be safe for sequential use;
// stateful functions additionally implement StateFunction.
type Function interface {
	// ID returns the function's identity.
	ID() ID
	// Process handles one request payload and returns the response
	// payload. Errors indicate malformed requests, not capacity issues.
	Process(req []byte) ([]byte, error)
}

// StateFunction is implemented by stateful functions. StateLines reports
// the cache-line identifiers the given request will touch in the shared
// state region; the coherence simulator charges transfer costs for them
// when the SNIC and host process the function cooperatively.
type StateFunction interface {
	Function
	StateLines(req []byte) []uint64
}

// RequestGen produces valid request payloads for a function — the client
// side of the benchmark.
type RequestGen interface {
	// Next returns a request payload drawn from rng, so requests are
	// reproducible per stream. A client gives each request a stream of
	// its own, keyed by the request's sequence number.
	Next(rng *rng.Rand) []byte
}

// RequestGenInto is optionally implemented by generators that can render a
// request into a caller-supplied buffer. NextInto must consume rng
// identically to Next and overwrite every byte it returns, so a stream
// produced through recycled buffers is byte-for-byte the stream Next would
// have produced — only the allocations disappear. Implementations reuse buf
// when its capacity suffices and fall back to allocating otherwise, so nil
// is always an acceptable buffer.
type RequestGenInto interface {
	RequestGen
	NextInto(rng *rng.Rand, buf []byte) []byte
}

// RequestGenLen is optionally implemented by generators that can tell a
// request's length without rendering its bytes. NextLen must return the
// length of the payload Next would return from the same stream state.
// It need not make Next's other draws: the request's stream is its own,
// so a client that reads no payload byte draws only the length.
type RequestGenLen interface {
	RequestGen
	NextLen(rng *rng.Rand) int
}

// Reserve returns buf resliced to n bytes when its capacity allows,
// otherwise a fresh allocation. NextInto implementations use it as their
// common prologue.
func Reserve(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// Factory builds a fresh function instance plus a matching request
// generator. Config strings select the paper's per-function configurations
// (e.g. "1k"/"10k" NAT entries, "tea"/"lite" rulesets); the empty string
// selects the default configuration used in the headline experiments.
// A factory is only called with "" or a name registered with it.
type Factory func(config string) (Function, RequestGen, error)

// registration is a factory and the configuration names it accepts.
type registration struct {
	factory Factory
	configs []string
}

var (
	regMu    sync.RWMutex
	registry = map[ID]registration{}
)

// Register installs the factory for id with the configuration names it
// accepts besides the default "". Subpackages call it from init.
// Registering the same ID twice panics: it would silently shadow a real
// implementation.
func Register(id ID, f Factory, configs ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("nf: duplicate registration for %v", id))
	}
	registry[id] = registration{factory: f, configs: configs}
}

// lookup returns id's factory if config is one it accepts.
func lookup(id ID, config string) (Factory, error) {
	regMu.RLock()
	r, ok := registry[id]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("nf: no implementation registered for %v (missing import?)", id)
	}
	if config != "" && !slices.Contains(r.configs, config) {
		return nil, fmt.Errorf("nf: unknown %v config %q (want %s)", id, config, strings.Join(r.configs, " or "))
	}
	return r.factory, nil
}

// CheckConfig reports whether function id is linked in and accepts config,
// without building the function.
func CheckConfig(id ID, config string) error {
	_, err := lookup(id, config)
	return err
}

// New instantiates function id with the given configuration. It fails if
// the implementation package was not linked in or the config is unknown.
func New(id ID, config string) (Function, RequestGen, error) {
	f, err := lookup(id, config)
	if err != nil {
		return nil, nil, err
	}
	return f(config)
}

// Registered returns the sorted list of registered function IDs.
func Registered() []ID {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := make([]ID, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
