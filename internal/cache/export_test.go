package cache

import (
	"reflect"
	"slices"
)

// SameState reports whether two caches are deeply equal, as
// reflect.DeepEqual would, but for which pooled array holds their
// lines. It compares the line arrays with == first: DeepEqual's
// field-by-field walk costs about 20 ms per multi-MB LLC.
func SameState(a, b *Cache) bool {
	ac, bc := *a, *b
	if !slices.Equal(ac.lines, bc.lines) {
		return false
	}
	ac.lines, bc.lines = nil, nil
	ac.owner, bc.owner = nil, nil
	return reflect.DeepEqual(&ac, &bc)
}

// Deferred reports whether c holds a prewarm plan with sets not yet
// placed (a reused array's plan that only clears stale sets is none).
func Deferred(c *Cache) bool { return c.plan != nil && c.plan.runs != nil }
