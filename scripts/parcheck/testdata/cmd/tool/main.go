// Command tool is a parcheck fixture: a main outside internal/ owns its
// root context.
package main

import "context"

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_ = ctx
}
