// Package ctxflowtest is the ctxflow analyzer's fixture: context
// parameter placement, severed cancellation chains, and the one
// recognized escape (the nil-guard idiom).
package ctxflowtest

import "context"

func work(ctx context.Context, n int) error {
	return sink(ctx, n)
}

func sink(ctx context.Context, n int) error {
	_ = ctx
	_ = n
	return nil
}

func badOrder(n int, ctx context.Context) error { // want `badOrder: context\.Context must be the first parameter`
	return sink(ctx, n)
}

func severed(ctx context.Context, n int) error {
	_ = ctx
	return sink(context.Background(), n) // want `context\.Background in library code severs the cancellation chain`
}

func todoRoot(n int) error {
	return sink(context.TODO(), n) // want `context\.TODO in library code severs the cancellation chain`
}

func guarded(ctx context.Context, n int) error {
	if ctx == nil {
		ctx = context.Background() // the recognized nil-guard idiom
	}
	return sink(ctx, n)
}

func nilArg(n int) error {
	return sink(nil, n) // want `nil context passed to sink`
}
