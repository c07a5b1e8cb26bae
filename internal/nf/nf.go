// Package nf defines the network-function abstraction shared by the ten
// benchmark functions of the paper (Table IV). The implementations live in
// its subpackages; the simulator's server builds them from a static table
// indexed by ID.
//
// Functions are functionally real: Process consumes request payload bytes
// and produces response payload bytes (a NAT really translates, REM really
// matches patterns, the compressor really compresses). How fast a function
// runs on a given processor is a separate concern owned by
// internal/platform.
package nf

import (
	"fmt"
	"strings"

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
// side of the benchmark. A client gives each request a stream of its own,
// keyed by the request's sequence number, and calls exactly one of the two
// methods on it: NextInto when something in the run reads the payload's
// bytes, NextLen when only its length matters.
type RequestGen interface {
	// NextLen returns the length of the payload NextInto would render
	// from the same stream state. It draws only what the length depends
	// on: the request's stream is its own, so the draws it skips are
	// nobody else's.
	NextLen(rng *rng.Rand) int
	// NextInto renders a request payload drawn from rng. It writes every
	// byte it returns, so recycled buffers carry no stale bytes, and it
	// reuses buf when its capacity suffices (nil is always acceptable).
	NextInto(rng *rng.Rand, buf []byte) []byte
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
