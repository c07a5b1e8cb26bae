package nf

import "testing"

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
