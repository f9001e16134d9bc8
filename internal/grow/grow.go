// Package grow holds the growth policies of reused stores: Reserve for
// stores sized from a count known before they are filled (a simulated
// day's agent count, or the record counts in a columnar feed block's
// header), Headroom for windows whose size drifts from day to day.
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

// Headroom returns s emptied, with room for n elements. A slice that is
// short is reallocated with room for 2n, once: a window that drifts a
// little wider on later days (a day's KPI sketch window) then reuses it,
// where an exact allocation would be followed by append's doubling.
func Headroom[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, 2*n)
	}
	return s[:0]
}
