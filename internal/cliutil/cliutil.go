// Package cliutil holds the exit-status conventions shared by the halsim
// and halbench commands:
//
//	0 — success (and every assertion held)
//	1 — runtime failure or assertion failure
//	2 — usage or validation error (bad flags, bad scenario, bad fault plan)
//
// Both CLIs route errors through ExitCode so a fault.Plan or scenario file
// that fails validation exits 2 everywhere, never a tool-specific status.
package cliutil

import (
	"errors"
	"fmt"
	"os"

	"halsim/internal/fault"
	"halsim/internal/scenario"
)

// Exit statuses, by name. ExitUsage follows the flag package's own
// convention for bad invocations.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
)

// ExitCode maps an error to the exit status it deserves: validation errors
// (a fault plan or scenario file that failed Validate, even wrapped) are
// usage errors (2); nil is success (0); anything else is a runtime
// failure (1).
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	var fe *fault.ValidationError
	var se *scenario.ValidationError
	if errors.As(err, &fe) || errors.As(err, &se) {
		return ExitUsage
	}
	return ExitFailure
}

// Fail prints "tool: err" to stderr and exits with ExitCode(err).
func Fail(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitCode(err))
}
