// Package lib is a parcheck fixture: library code under internal/. Each
// line parcheck must report says so in a trailing "want" comment.
package lib

import (
	"context"

	"physdep/internal/par"
)

func annotatedAbove() context.Context {
	// ctx: a documented root context, marked on the line above.
	return context.Background()
}

func annotatedSameLine() context.Context {
	return context.Background() // ctx: a documented root context, marked on its own line.
}

func dropped() context.Context {
	return context.Background() // want
}

func todo() context.Context {
	return context.TODO() // want
}

func wrongMarker() context.Context {
	// par: this marker covers par discards only.
	return context.Background() // want
}

func undocumentedDiscard() {
	_ = par.For(3, func(int) error { return nil }) // want
}

func documentedDiscard() {
	// par: discard ok, the fn never errors.
	_ = par.For(3, func(int) error { return nil })
}

func threaded(ctx context.Context) error {
	return par.ForCtx(ctx, 3, func(int) error { return nil })
}
