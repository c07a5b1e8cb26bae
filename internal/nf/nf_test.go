package nf

import (
	"math/rand"
	"strings"
	"testing"
)

func TestIDStrings(t *testing.T) {
	want := map[ID]string{
		KVS: "KVS", Count: "Count", EMA: "EMA", NAT: "NAT", BM25: "BM25",
		KNN: "KNN", Bayes: "Bayes", REM: "REM", Crypto: "Crypto", Comp: "Comp",
	}
	for id, name := range want {
		if id.String() != name {
			t.Errorf("%d.String() = %q, want %q", id, id.String(), name)
		}
		got, err := ParseID(name)
		if err != nil || got != id {
			t.Errorf("ParseID(%q) = %v, %v", name, got, err)
		}
	}
	if ID(-1).String() != "nf(-1)" {
		t.Error("negative ID string")
	}
	// Names match case-insensitively; anything else stays unknown.
	for name, id := range map[string]ID{"kvs": KVS, "nat": NAT, "Nat": NAT, "rEm": REM, "bm25": BM25, "COMP": Comp} {
		if got, err := ParseID(name); err != nil || got != id {
			t.Errorf("ParseID(%q) = %v, %v, want %v", name, got, err, id)
		}
	}
	for _, name := range []string{"", "nats", "NAT ", "kv"} {
		if _, err := ParseID(name); err == nil {
			t.Errorf("ParseID(%q) accepted an unknown name", name)
		}
	}
}

func TestStatefulFlags(t *testing.T) {
	stateful := map[ID]bool{KVS: true, Count: true, EMA: true, Comp: true}
	for _, id := range All {
		if id.Stateful() != stateful[id] {
			t.Errorf("%v.Stateful() = %v", id, id.Stateful())
		}
	}
}

func TestAllCoversEveryID(t *testing.T) {
	if len(All) != int(numIDs) {
		t.Fatalf("All has %d entries, want %d", len(All), numIDs)
	}
	seen := map[ID]bool{}
	for _, id := range All {
		if seen[id] {
			t.Fatalf("duplicate %v in All", id)
		}
		seen[id] = true
	}
}

func TestNewUnregistered(t *testing.T) {
	// This test package does not import any implementation, so nothing
	// is registered here.
	if _, _, err := New(KVS, ""); err == nil {
		t.Fatal("unregistered function should fail")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(numIDs+1, func(string) (Function, RequestGen, error) { return nil, nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	Register(numIDs+1, func(string) (Function, RequestGen, error) { return nil, nil, nil })
}

func TestCheckConfig(t *testing.T) {
	Register(numIDs+2, func(string) (Function, RequestGen, error) { return nil, nil, nil }, "a", "b")
	for _, cfg := range []string{"", "a", "b"} {
		if err := CheckConfig(numIDs+2, cfg); err != nil {
			t.Errorf("config %q: %v", cfg, err)
		}
	}
	if err := CheckConfig(numIDs+2, "c"); err == nil || !strings.Contains(err.Error(), `config "c" (want a or b)`) {
		t.Errorf("config \"c\": err = %v", err)
	}
	if _, _, err := New(numIDs+2, "c"); err == nil {
		t.Error("New accepted an unregistered config")
	}
}

func TestRegisteredSorted(t *testing.T) {
	ids := Registered()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("Registered must be sorted and unique")
		}
	}
}

func TestRequestGenFunc(t *testing.T) {
	g := RequestGenFunc(func(_ *rand.Rand) []byte { return []byte{7} })
	if b := g.Next(rand.New(rand.NewSource(1))); len(b) != 1 || b[0] != 7 {
		t.Fatal("RequestGenFunc adapter broken")
	}
}
