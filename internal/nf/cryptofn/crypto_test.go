package cryptofn

import (
	"math/big"
	"math/rand"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/rng"
)

func TestParamsWellFormed(t *testing.T) {
	p := DefaultParams()
	if !p.P.ProbablyPrime(20) {
		t.Fatal("P must be prime")
	}
	if !p.Q.ProbablyPrime(20) {
		t.Fatal("Q must be prime")
	}
	if p.P.BitLen() != 512 {
		t.Fatalf("P bits = %d", p.P.BitLen())
	}
	if p.Q.BitLen() != 160 {
		t.Fatalf("Q bits = %d", p.Q.BitLen())
	}
}

func TestParamsDeterministic(t *testing.T) {
	a, b := DefaultParams(), DefaultParams()
	if a.P.Cmp(b.P) != 0 || a.Q.Cmp(b.Q) != 0 {
		t.Fatal("params must be deterministic")
	}
}

func TestRSAMatchesBigIntExp(t *testing.T) {
	f := NewFunc()
	operand := []byte{0x12, 0x34, 0x56}
	resp, err := f.Process(append([]byte{byte(AlgRSA)}, operand...))
	if err != nil {
		t.Fatal(err)
	}
	m := new(big.Int).SetBytes(operand)
	want := new(big.Int).Exp(m, f.Params().E, f.Params().P)
	if new(big.Int).SetBytes(resp).Cmp(want) != 0 {
		t.Fatal("RSA result mismatch")
	}
}

func TestDHSharedSecretAgreement(t *testing.T) {
	// (g^a)^b == (g^b)^a mod p — the defining DH property, computed
	// through the function's own modexp on one side.
	f := NewFunc()
	p, g := f.Params().P, f.Params().G
	a := big.NewInt(123456789)
	b := big.NewInt(987654321)
	ga, err := f.Process(append([]byte{byte(AlgDH)}, a.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := f.Process(append([]byte{byte(AlgDH)}, b.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	s1 := new(big.Int).Exp(new(big.Int).SetBytes(ga), b, p)
	s2 := new(big.Int).Exp(new(big.Int).SetBytes(gb), a, p)
	if s1.Cmp(s2) != 0 {
		t.Fatal("DH shared secrets disagree")
	}
	_ = g
}

func TestDSAResultInSubrange(t *testing.T) {
	f := NewFunc()
	resp, err := f.Process(append([]byte{byte(AlgDSA)}, 0x77, 0x88, 0x99))
	if err != nil {
		t.Fatal(err)
	}
	r := new(big.Int).SetBytes(resp)
	if r.Cmp(f.Params().Q) >= 0 {
		t.Fatal("DSA r must be < Q")
	}
}

func TestZeroOperandHandled(t *testing.T) {
	f := NewFunc()
	if _, err := f.Process([]byte{byte(AlgRSA), 0x00}); err != nil {
		t.Fatalf("zero operand: %v", err)
	}
}

func TestMalformed(t *testing.T) {
	f := NewFunc()
	if _, err := f.Process([]byte{byte(AlgRSA)}); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	if _, err := f.Process([]byte{0x7F, 1, 2}); err != ErrBadAlg {
		t.Fatalf("bad alg: %v", err)
	}
}

func TestOpCounters(t *testing.T) {
	f := NewFunc()
	f.Process([]byte{byte(AlgRSA), 1})
	f.Process([]byte{byte(AlgRSA), 2})
	f.Process([]byte{byte(AlgDH), 3})
	if f.Ops[AlgRSA] != 2 || f.Ops[AlgDH] != 1 || f.Ops[AlgDSA] != 0 {
		t.Fatalf("ops = %v", f.Ops)
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgRSA.String() != "RSA" || AlgDH.String() != "DH" || AlgDSA.String() != "DSA" {
		t.Fatal("names wrong")
	}
	if Algorithm(0x55).String() != "alg(85)" {
		t.Fatal("unknown name wrong")
	}
}

func TestFactory(t *testing.T) {
	fn, gen, err := nf.New(nf.Crypto, "")
	if err != nil {
		t.Fatal(err)
	}
	rng := rng.Stream(9, rng.Payload, 0)
	for i := 0; i < 20; i++ {
		if _, err := fn.Process(gen.Next(&rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := nf.New(nf.Crypto, "rsa4096"); err == nil {
		t.Fatal("bad config should fail")
	}
}

func BenchmarkRSA512(b *testing.B) {
	f := NewFunc()
	req := append([]byte{byte(AlgRSA)}, make([]byte, 32)...)
	rand.New(rand.NewSource(1)).Read(req[1:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(req); err != nil {
			b.Fatal(err)
		}
	}
}
