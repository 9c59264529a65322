package route

import (
	"reflect"
	"testing"

	"repro/internal/ch"
	"repro/internal/core"
)

// TestNoContextFreeTwins keeps one form per operation on the serving
// types: a method X beside a method XCtx means a context-free twin of a
// request-scoped operation came back. Keep the XCtx form and let callers
// without a request pass context.Background().
func TestNoContextFreeTwins(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*Service)(nil)),
		reflect.TypeOf((*core.Planner)(nil)),
		reflect.TypeOf((*ch.Index)(nil)),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if _, twin := typ.MethodByName(name + "Ctx"); twin {
				t.Errorf("%v has both %s and %sCtx; keep only the context form", typ, name, name)
			}
		}
	}
}
