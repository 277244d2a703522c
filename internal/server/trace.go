package server

import (
	"context"

	"repro/internal/obs"
)

// Request tracing plumbing: every request gets a Trace (continuing the
// W3C traceparent header when the caller sent one), carried through the
// request context so the assert path can attribute commit phases —
// admission, queue wait, solve, WAL append/fsync, publish — to the
// requests that paid for them. Finished traces land in the server's
// flight recorder (dumped at /debug/traces).

// traceCtxKey carries the per-request trace state.
type traceCtxKey struct{}

// requestTrace is the per-request trace state handlers read from the
// context.
type requestTrace struct {
	tr    *obs.Trace
	reqID string
}

func withTrace(ctx context.Context, rt *requestTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, rt)
}

// traceFrom returns the request's trace state, or nil outside the
// instrumented handler chain (direct handler tests).
func traceFrom(ctx context.Context) *requestTrace {
	rt, _ := ctx.Value(traceCtxKey{}).(*requestTrace)
	return rt
}
