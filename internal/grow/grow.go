// Package grow is the growth policy of the stores that are sized from a
// count known before they are filled: a simulated day's agent count, or
// the record counts in a columnar feed block's header.
package grow

import "slices"

// Reserve returns s with room for n more elements. A slice with no
// capacity yet is allocated once, of exactly n elements; a slice with
// room is returned as is; and a slice that is short grows as append
// would, so stores whose days slowly get larger do not reallocate on
// every larger day.
func Reserve[T any](s []T, n int) []T {
	if cap(s) == 0 {
		return make([]T, 0, n)
	}
	return slices.Grow(s, n)
}
