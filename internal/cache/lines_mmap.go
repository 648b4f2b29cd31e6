//go:build linux && !race

package cache

import (
	"syscall"
	"unsafe"
)

// mapLines returns n zeroed lines in an anonymous private mapping
// outside the Go heap, whose pages the kernel zero-fills on first
// touch. If the mapping fails it makes them on the heap instead and
// reports mapped false.
func mapLines(n int) (lines []Line, mapped bool) {
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(Line{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return make([]Line, n), false
	}
	return unsafe.Slice((*Line)(unsafe.Pointer(unsafe.SliceData(b))), n), true
}

// unmapLines unmaps lines that mapLines mapped. Nothing may touch them
// afterwards.
func unmapLines(lines []Line) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(lines))), len(lines)*int(unsafe.Sizeof(Line{})))
	if err := syscall.Munmap(b); err != nil {
		panic("cache: unmapping a line array: " + err.Error())
	}
}
