package sepsp

import (
	"errors"
	"fmt"
	"runtime/debug"

	"sepsp/internal/pram"
)

// Sentinel errors. Library entry points wrap these with context via
// fmt.Errorf("%w: …"), so callers branch with errors.Is:
//
//	ix, err := sepsp.Build(g, opt)
//	switch {
//	case errors.Is(err, sepsp.ErrBadOptions):      // fix the Options
//	case errors.Is(err, sepsp.ErrNegativeCycle):   // distances undefined
//	}
var (
	// ErrBadOptions reports an invalid Options value: conflicting or
	// malformed decomposition hints, a Decomposition constructed from
	// inconsistent inputs, or invalid server limits.
	ErrBadOptions = errors.New("sepsp: invalid options")

	// ErrSkeletonMismatch reports that a graph handed to WithWeights does
	// not share the indexed graph's undirected skeleton, so the
	// decomposition cannot be reused (paper comment (iv) requires equal
	// skeletons).
	ErrSkeletonMismatch = errors.New("sepsp: undirected skeleton mismatch")

	// ErrServerClosed is returned by Server methods after Close.
	ErrServerClosed = errors.New("sepsp: server closed")

	// ErrServerOverloaded is returned by Server methods when admitting the
	// request would exceed ServerOptions.MaxInFlight. It is a load-shedding
	// signal: the caller should back off and retry (see Retry).
	ErrServerOverloaded = errors.New("sepsp: server overloaded")

	// ErrQueueTimeout is returned by Server methods when a request spends
	// longer than ServerOptions.QueueTimeout queued or being served. Unlike
	// ErrServerOverloaded it means work was admitted and then abandoned, so
	// retrying without backing off will make the overload worse.
	ErrQueueTimeout = errors.New("sepsp: request timed out in queue")

	// ErrInvalidWeight reports an edge weight the engine cannot propagate:
	// NaN (poisons every distance it touches) or -Inf (a degenerate
	// negative cycle). +Inf is permitted and is equivalent to the edge
	// being absent.
	ErrInvalidWeight = errors.New("sepsp: invalid edge weight")

	// ErrCorruptIndex reports that a persisted index blob failed
	// validation on Load: a broken gob stream, an unsupported version, or
	// decoded data that is structurally inconsistent (out-of-range
	// endpoints, invalid weights, a decomposition that does not match the
	// graph). The blob cannot be used; rebuild or restore from a good copy.
	ErrCorruptIndex = errors.New("sepsp: corrupt index data")

	// ErrRebuildFailed reports that a Manager reweighting rebuild did not
	// produce a servable index — the E+ reconstruction failed or panicked.
	// The failure never touches live traffic: the manager keeps serving the
	// old epoch, latches a failure counter, and surfaces this error to the
	// Reweight caller (errors.Is also matches the underlying cause, e.g.
	// ErrSkeletonMismatch or a *PanicError via errors.As).
	ErrRebuildFailed = errors.New("sepsp: reweighting rebuild failed")

	// ErrRebuildInFlight reports that Manager.Reweight was called while an
	// earlier rebuild was still running. Rebuilds are single-flight: retry
	// after the in-flight rebuild completes (or cancel it via its context).
	ErrRebuildInFlight = errors.New("sepsp: a reweighting rebuild is already in flight")

	// ErrBrownout reports that the server was in brownout mode (shedding
	// hard enough that low-priority queries are answered degraded from the
	// baseline engine) but could not produce even a degraded answer — the
	// index has no fallback engine, the fallback circuit breaker is open,
	// or the fallback itself failed. It always wraps ErrServerOverloaded,
	// so existing errors.Is(err, ErrServerOverloaded) retry loops keep
	// backing off.
	ErrBrownout = errors.New("sepsp: brownout engaged but no degraded answer available")

	// ErrBreakerOpen reports that a circuit breaker is refusing the
	// operation: repeated failures latched it open, and it stays open until
	// the cooldown elapses and a half-open probe succeeds. Retrying before
	// then fails fast without performing the operation.
	ErrBreakerOpen = errors.New("sepsp: circuit breaker open")

	// ErrDegraded reports that an operation requires the separator index
	// but the Index is serving in degraded (baseline fallback) mode — the
	// decomposition failed to build or failed its invariant checks, so
	// there is no E+ to persist, no hub-label oracle to build, and no
	// decomposition to render. Distance queries keep working (exactly, via
	// the baseline engine); only index-structure operations fail.
	ErrDegraded = errors.New("sepsp: index degraded to baseline engine")
)

// PanicError is a panic recovered from the engine or the serving stack,
// converted into an error: worker goroutines of the PRAM executor and the
// Server's per-request runner recover panics instead of letting them kill the
// process, and error-returning entry points surface them as a *PanicError
// (use errors.As to retrieve the stack). Entry points without an error
// result re-raise the *PanicError in the caller's goroutine unless a
// FallbackPolicy routes the query to the baseline engine instead.
type PanicError struct {
	// Op is the public operation during which the panic was recovered
	// ("sssp", "sources", "build", "serve", …).
	Op string
	// Value is the original panic value.
	Value any
	// Stack is the stack of the panicking goroutine, captured at the
	// panic site (worker goroutine stacks are preserved across the
	// executor's re-raise).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sepsp: panic during %s: %v", e.Op, e.Value)
}

// Unwrap exposes an error panic value (for example an injected fault or a
// wrapped *pram.Panic cause) to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// newPanicError converts a recovered panic value into a *PanicError,
// unwrapping the executor's *pram.Panic envelope so Value and Stack are the
// worker's own.
func newPanicError(op string, r any) *PanicError {
	if wp, ok := r.(*pram.Panic); ok {
		return &PanicError{Op: op, Value: wp.Value, Stack: wp.Stack}
	}
	// Same-goroutine panic: the deferred recover still sees the panicking
	// frames below it, so the captured stack includes the origin.
	return &PanicError{Op: op, Value: r, Stack: debug.Stack()}
}
