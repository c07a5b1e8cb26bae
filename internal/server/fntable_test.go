package server

import (
	"fmt"
	"strings"
	"testing"

	"halsim/internal/nf"
)

// TestFnTable: every function of nf.All has a row whose factory builds it
// in "" and in each named configuration, and the row rejects any other
// name with the "(want a or b)" reason, without reaching the factory. IDs
// outside nf.All have no row.
func TestFnTable(t *testing.T) {
	if len(fnTable) != len(nf.All) {
		t.Fatalf("table has %d rows for %d functions", len(fnTable), len(nf.All))
	}
	for _, id := range nf.All {
		row := fnTable[id]
		if row.factory == nil || len(row.configs) == 0 {
			t.Fatalf("%v: no factory or no named configuration", id)
		}
		for _, config := range append([]string{""}, row.configs...) {
			fn, gen, err := newFn(id, config)
			if err != nil || fn.ID() != id || gen == nil {
				t.Fatalf("%v %q: built %v, generator %v, err %v", id, config, fn, gen, err)
			}
		}
		want := fmt.Sprintf(`unknown %v config "bogus" (want %s)`, id, strings.Join(row.configs, " or "))
		if err := checkFn(id, "bogus"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: checkFn(bogus) = %v, want %q", id, err, want)
		}
		if _, _, err := newFn(id, "bogus"); err == nil {
			t.Errorf("%v: newFn accepted an unknown config", id)
		}
	}
	for _, id := range []nf.ID{-1, nf.ID(len(nf.All))} {
		if err := checkFn(id, ""); err == nil {
			t.Errorf("checkFn accepted %v", id)
		}
	}
}
