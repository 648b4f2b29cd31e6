//go:build !linux || race

package cache

// mapLines makes n zeroed lines on the heap: off Linux, and in race
// builds, whose detector does not see accesses outside the heap.
func mapLines(n int) (lines []Line, mapped bool) { return make([]Line, n), false }

// unmapLines is never called: no array is mapped.
func unmapLines([]Line) {}
