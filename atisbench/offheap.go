package main

import (
	"fmt"
	"reflect"
	"syscall"
	"unsafe"
)

// arena hands out slices of pointer-free values in memory outside the Go
// heap. The collector neither scans that memory nor counts it toward its
// heap goal, so the benchmark's request streams and answer buffers — far
// larger than the server's own heap — do not set the program's GC pace.
// free releases every slice at once; none may be used after it.
type arena struct{ maps [][]byte }

// arenaSlice returns an empty slice with room for n values of T. A nil
// arena, or one whose mapping fails, gives an ordinary heap slice.
func arenaSlice[T any](a *arena, n int) []T {
	t := reflect.TypeFor[T]()
	if hasPointers(t) {
		panic(fmt.Sprintf("arena: %v holds pointers", t))
	}
	if a == nil || n == 0 || t.Size() == 0 {
		return make([]T, 0, n)
	}
	b := a.mmap(int(t.Size()) * n)
	if b == nil {
		return make([]T, 0, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)[:0]
}

// arenaCopy returns a copy of xs in a.
func arenaCopy[T any](a *arena, xs []T) []T {
	return append(arenaSlice[T](a, len(xs)), xs...)
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// mmap maps size bytes of anonymous memory, or returns nil. The kernel
// backs pages only when they are first written, so a generous
// reservation costs nothing.
func (a *arena) mmap(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	a.maps = append(a.maps, b)
	return b
}

func (a *arena) free() {
	if a == nil {
		return
	}
	for _, b := range a.maps {
		_ = syscall.Munmap(b)
	}
	a.maps = nil
}
