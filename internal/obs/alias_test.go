package obs

import (
	"reflect"
	"testing"
	"time"
)

// The engine's zero-allocation decode path reuses scratch backing arrays:
// Token.DecodeFrom aliases its Rtr slice into a per-engine scratch buffer
// that the next decode overwrites. Any observability record that kept a
// slice (or pointer) into protocol state would therefore silently mutate
// after the fact. The one event struct (and its /debug/ring rendering) is required to be scalar-only so the
// hazard is structurally impossible; this test pins that property.
func TestEventStructsAreAliasFree(t *testing.T) {
	// time.Time is allowed: its only pointer is the *Location for a
	// named zone, which is immutable and never protocol-owned.
	whitelisted := map[reflect.Type]bool{reflect.TypeOf(time.Time{}): true}

	var check func(t *testing.T, typ reflect.Type, path string)
	check = func(t *testing.T, typ reflect.Type, path string) {
		if whitelisted[typ] {
			return
		}
		switch typ.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: it could alias pooled protocol memory; store scalars instead",
				path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(t, f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			check(t, typ.Elem(), path+"[]")
		}
	}

	for _, ev := range []any{Event{}, RoundTrace{}} {
		typ := reflect.TypeOf(ev)
		check(t, typ, typ.Name())
	}
}
