// Package cryptofn implements the Cryptography benchmark function: public
// key operations (RSA, DH, DSA — the three the paper drives through the
// BlueField-2 PKA and the host QAT engine). The arithmetic is real modular
// bignum exponentiation over fixed, deterministic parameter sets; key sizes
// are kept small enough (512-bit) that functional tests stay fast while the
// code path — modexp over packet-carried operands — is the same one the
// accelerators execute.
package cryptofn

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"halsim/internal/nf"
	"halsim/internal/rng"
)

// Algorithm selects the public-key operation.
type Algorithm byte

// Request op codes (first payload byte).
const (
	AlgRSA Algorithm = 0x01 // modexp with the public exponent
	AlgDH  Algorithm = 0x02 // g^x mod p
	AlgDSA Algorithm = 0x03 // r = (g^k mod p) mod q
)

func (a Algorithm) String() string {
	switch a {
	case AlgRSA:
		return "RSA"
	case AlgDH:
		return "DH"
	case AlgDSA:
		return "DSA"
	default:
		return fmt.Sprintf("alg(%d)", byte(a))
	}
}

// Errors for malformed requests.
var (
	ErrShort  = errors.New("cryptofn: request too short")
	ErrBadAlg = errors.New("cryptofn: unknown algorithm")
)

// Params holds the deterministic group/modulus parameters. These are
// well-formed (p prime, g a generator-ish base) 512-bit values generated
// once with a fixed seed; they stand in for the paper's standard key sets.
type Params struct {
	P *big.Int // modulus (prime)
	Q *big.Int // subgroup order for DSA
	G *big.Int // base/generator
	E *big.Int // RSA public exponent
}

// DefaultParams builds the 512-bit parameter set used by the benchmark.
func DefaultParams() *Params {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	p := probablePrime(512, rng)
	q := probablePrime(160, rng)
	return &Params{
		P: p,
		Q: q,
		G: big.NewInt(2),
		E: big.NewInt(65537),
	}
}

func probablePrime(bits int, rng *rand.Rand) *big.Int {
	for {
		candidate := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		candidate.SetBit(candidate, bits-1, 1) // full length
		candidate.SetBit(candidate, 0, 1)      // odd
		if candidate.ProbablyPrime(20) {
			return candidate
		}
	}
}

// Func is the Crypto network function.
type Func struct {
	params *Params
	// Ops counts operations per algorithm for reporting.
	Ops map[Algorithm]uint64
}

// NewFunc returns a Crypto function over the default parameter set.
func NewFunc() *Func {
	return &Func{params: DefaultParams(), Ops: make(map[Algorithm]uint64)}
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.Crypto }

// Params exposes the parameter set.
func (f *Func) Params() *Params { return f.params }

// Process runs the selected public-key operation over the operand carried
// in the payload. Request: alg[1] operand[...]; response: result bytes.
func (f *Func) Process(req []byte) ([]byte, error) {
	if len(req) < 2 {
		return nil, ErrShort
	}
	alg := Algorithm(req[0])
	operand := new(big.Int).SetBytes(req[1:])
	// Keep operands inside the group.
	operand.Mod(operand, f.params.P)
	if operand.Sign() == 0 {
		operand.SetInt64(2)
	}
	var result *big.Int
	switch alg {
	case AlgRSA:
		// c = m^e mod p — textbook RSA encryption shape.
		result = new(big.Int).Exp(operand, f.params.E, f.params.P)
	case AlgDH:
		// shared = g^x mod p with x from the payload.
		result = new(big.Int).Exp(f.params.G, operand, f.params.P)
	case AlgDSA:
		// r = (g^k mod p) mod q — the expensive half of DSA signing.
		result = new(big.Int).Exp(f.params.G, operand, f.params.P)
		result.Mod(result, f.params.Q)
	default:
		return nil, ErrBadAlg
	}
	f.Ops[alg]++
	return result.Bytes(), nil
}

// gen emits an even mix of RSA, DH and DSA operations on random operands.
type gen struct {
	operandLen int
}

// NextLen implements nf.RequestGen: an algorithm byte and one operand.
func (g gen) NextLen(*rng.Rand) int { return 1 + g.operandLen }

// NextInto implements nf.RequestGen.
func (g gen) NextInto(rng *rng.Rand, buf []byte) []byte {
	b := nf.Reserve(buf, 1+g.operandLen)
	switch rng.Intn(3) {
	case 0:
		b[0] = byte(AlgRSA)
	case 1:
		b[0] = byte(AlgDH)
	default:
		b[0] = byte(AlgDSA)
	}
	rng.Read(b[1:])
	return b
}

// New builds a Crypto function and its request generator. Its one
// configuration, "" or "mixed", mixes the three algorithms.
func New(string) (nf.Function, nf.RequestGen, error) {
	return NewFunc(), gen{operandLen: 32}, nil
}
