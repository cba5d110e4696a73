// Package budget defines the typed termination errors shared by every
// stage of the QUEST pipeline, plus the helpers that map context
// cancellation onto them. The contract, relied on from pipeline.Run down to
// the optimizer inner loops: a stage that is cut short returns an error
// wrapping exactly one of the three sentinels below (so callers can
// errors.Is against them through any number of fmt.Errorf %w layers),
// together with whatever partial results it already produced.
package budget

import (
	"context"
	"errors"
)

var (
	// ErrDeadline reports that a stage stopped because its time budget
	// (context deadline) expired.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrCancelled reports that a stage stopped because its context was
	// cancelled (caller abort, sibling failure, signal).
	ErrCancelled = errors.New("cancelled")
	// ErrNoConvergence reports that a stage ran its full budget without
	// reaching its quality threshold (for example a synthesis attempt
	// whose best candidate missed the block's distance budget).
	ErrNoConvergence = errors.New("no convergence")
)

// Cause maps the context package's sentinel errors onto this package's
// typed errors; any other error (including nil) is returned unchanged.
func Cause(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	case errors.Is(err, context.Canceled):
		return ErrCancelled
	}
	return err
}

// Check returns nil while ctx is live; once ctx is done it returns the
// typed sentinel (ErrDeadline or ErrCancelled). It is cheap enough to
// call at every loop boundary of an optimizer or search.
func Check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return Cause(err)
	}
	return nil
}

// Terminated reports whether err is (or wraps) one of the cancellation
// sentinels — the errors that mean "stop doing work", as opposed to
// quality failures like ErrNoConvergence that a caller may retry.
func Terminated(err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(err, ErrCancelled)
}
