package server

import (
	"errors"
	"net/http"

	"repro/datalog"
)

// apiError is the structured JSON error body. Status codes and ExitCode
// mirror the mdl CLI's exit-code contract (1 usage, 2 parse, 3 static,
// 4 evaluation, 5 checkpoint, 6 write-ahead log) so scripted clients
// can reuse the same classification whether they drive the binary or
// the service.
type apiError struct {
	// Code is a stable machine-readable class.
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// ExitCode is the CLI exit code the same failure would produce.
	ExitCode int `json:"exit_code"`
	// RetryAfter is the server's backoff hint in whole seconds, echoed
	// in the Retry-After header; every 429/503 carries one (see the
	// client retry contract in docs/SERVER.md).
	RetryAfter int `json:"retry_after,omitempty"`
	// status is the HTTP status (not serialized; carried alongside).
	status int
}

// The error classes of the API surface.
func errUsage(msg string) *apiError {
	return &apiError{Code: "usage", Message: msg, ExitCode: 1, status: http.StatusBadRequest}
}

func errNotFound(msg string) *apiError {
	return &apiError{Code: "not_found", Message: msg, ExitCode: 1, status: http.StatusNotFound}
}

func errMaterializing() *apiError {
	return &apiError{Code: "materializing", Message: "model not materialized yet", ExitCode: 4, status: http.StatusServiceUnavailable}
}

// The admission-control error classes: the server is healthy but
// refuses the work right now. Clients retry after the hinted backoff.
func errQueueFullShed(retryAfter int) *apiError {
	return &apiError{
		Code: "shed", Message: "assert queue full; retry with backoff",
		ExitCode: 4, RetryAfter: retryAfter, status: http.StatusTooManyRequests,
	}
}

func errDrainingShed() *apiError {
	return &apiError{
		Code: "draining", Message: "server is draining; retry against the restarted instance",
		ExitCode: 4, RetryAfter: 1, status: http.StatusServiceUnavailable,
	}
}

func errOverloaded(retryAfter int) *apiError {
	return &apiError{
		Code: "overloaded", Message: "read concurrency limit reached; retry with backoff",
		ExitCode: 4, RetryAfter: retryAfter, status: http.StatusServiceUnavailable,
	}
}

// classifySolveError maps an evaluation failure from the datalog facade
// onto the API error surface:
//
//	bad fact values (cost missing, unparsable)  -> 400 "parse"    (exit 2)
//	non-monotone addition rejected              -> 409 "static"   (exit 3)
//	canceled / deadline                         -> 503 "canceled" (exit 4)
//	derivation budget exceeded                  -> 422 "budget"   (exit 4)
//	divergence (ω-limit)                        -> 422 "diverged" (exit 4)
//	contained engine panic                      -> 500 "internal" (exit 4)
//	checkpoint write                            -> 500 "checkpoint" (exit 5)
//	write-ahead log append/fsync                -> 500 "wal"      (exit 6)
func classifySolveError(err error) *apiError {
	switch {
	case errors.Is(err, errWALFailed):
		return &apiError{Code: "wal", Message: err.Error(), ExitCode: 6, status: http.StatusInternalServerError}
	case errors.Is(err, datalog.ErrCanceled):
		return &apiError{Code: "canceled", Message: err.Error(), ExitCode: 4, status: http.StatusServiceUnavailable}
	case errors.Is(err, datalog.ErrBudgetExceeded):
		return &apiError{Code: "budget", Message: err.Error(), ExitCode: 4, status: http.StatusUnprocessableEntity}
	case errors.Is(err, datalog.ErrDiverged):
		return &apiError{Code: "diverged", Message: err.Error(), ExitCode: 4, status: http.StatusUnprocessableEntity}
	case errors.Is(err, datalog.ErrInternal):
		return &apiError{Code: "internal", Message: err.Error(), ExitCode: 4, status: http.StatusInternalServerError}
	case errors.Is(err, datalog.ErrCheckpoint):
		return &apiError{Code: "checkpoint", Message: err.Error(), ExitCode: 5, status: http.StatusInternalServerError}
	default:
		// The remaining facade failures are rejected inputs: facts for
		// derived predicates, predicates that reach a negation or a
		// non-monotone aggregate (the static soundness conditions of
		// SolveMore), or malformed fact values.
		return &apiError{Code: "static", Message: err.Error(), ExitCode: 3, status: http.StatusConflict}
	}
}
