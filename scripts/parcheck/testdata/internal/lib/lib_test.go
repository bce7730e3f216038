package lib

import (
	"context"
	"testing"
)

// Test files may start from a root context: they are the caller.
func TestThreaded(t *testing.T) {
	if err := threaded(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = context.TODO()
}
