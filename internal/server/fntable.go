package server

import (
	"fmt"
	"slices"
	"strings"

	"halsim/internal/nf"
	"halsim/internal/nf/bayesfn"
	"halsim/internal/nf/bm25fn"
	"halsim/internal/nf/compressfn"
	"halsim/internal/nf/countfn"
	"halsim/internal/nf/cryptofn"
	"halsim/internal/nf/emafn"
	"halsim/internal/nf/knnfn"
	"halsim/internal/nf/kvsfn"
	"halsim/internal/nf/natfn"
	"halsim/internal/nf/remfn"
)

// fnTable holds, per nf.ID, the function's factory and the configuration
// names it accepts besides "" (the paper's per-function configurations of
// Table IV). A factory builds a fresh function instance and its request
// generator; "" selects the default configuration of the headline
// experiments, and no other name outside configs reaches it.
var fnTable = [...]struct {
	factory func(config string) (nf.Function, nf.RequestGen, error)
	configs []string
}{
	nf.KVS:    {kvsfn.New, []string{"small", "large"}},
	nf.Count:  {countfn.New, []string{"4", "8"}},
	nf.EMA:    {emafn.New, []string{"4", "8"}},
	nf.NAT:    {natfn.New, []string{"1k", "10k"}},
	nf.BM25:   {bm25fn.New, []string{"2k", "4k"}},
	nf.KNN:    {knnfn.New, []string{"8", "16"}},
	nf.Bayes:  {bayesfn.New, []string{"128", "256"}},
	nf.REM:    {remfn.New, []string{"tea", "lite"}},
	nf.Crypto: {cryptofn.New, []string{"mixed"}},
	nf.Comp:   {compressfn.New, []string{"1k", "4k"}},
}

// FnTable returns function id's row of the table runs build their
// functions from: its factory and the configuration names it accepts
// besides "". It panics for an id outside nf.All.
func FnTable(id nf.ID) (factory func(config string) (nf.Function, nf.RequestGen, error), configs []string) {
	row := fnTable[id]
	return row.factory, row.configs
}

// checkFn reports whether function id exists and accepts config, without
// building the function.
func checkFn(id nf.ID, config string) error {
	if id < 0 || int(id) >= len(fnTable) {
		return fmt.Errorf("server: unknown function %v", id)
	}
	if configs := fnTable[id].configs; config != "" && !slices.Contains(configs, config) {
		return fmt.Errorf("server: unknown %v config %q (want %s)", id, config, strings.Join(configs, " or "))
	}
	return nil
}

// newFn builds function id in config and its request generator.
func newFn(id nf.ID, config string) (nf.Function, nf.RequestGen, error) {
	if err := checkFn(id, config); err != nil {
		return nil, nil, err
	}
	return fnTable[id].factory(config)
}
