package nf_test

import (
	"fmt"
	"strings"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// TestCheckConfig: a function's configuration names are checked where
// runs are configured. For every function, server.Normalize accepts ""
// and each name of its function-table row, and rejects any other name
// with the "(want a or b)" reason.
func TestCheckConfig(t *testing.T) {
	check := func(id nf.ID, config string) error {
		cfg := server.Config{Mode: server.HostOnly, Fn: id, FnConfig: config}
		rc := server.RunConfig{Duration: sim.Millisecond, RateGbps: 1}
		return server.Normalize(&cfg, &rc)
	}
	for _, id := range nf.All {
		_, names := server.FnTable(id)
		for _, config := range append([]string{""}, names...) {
			if err := check(id, config); err != nil {
				t.Errorf("%v config %q: %v", id, config, err)
			}
		}
		want := fmt.Sprintf(`%v config "c" (want %s)`, id, strings.Join(names, " or "))
		if err := check(id, "c"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v config \"c\": err = %v, want %q", id, err, want)
		}
	}
}
