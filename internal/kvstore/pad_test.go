package kvstore

import (
	"testing"
	"unsafe"
)

// Compile-time pad assertion: the constant index is only legal when the
// struct size is an exact multiple of the 64-byte cache line, so a lock
// or field change that breaks the padding stops this file from
// compiling — fix the pad array, not the assertion. (sync.RWMutex is 24
// bytes against sync.Mutex's 8; the pad in kvstore.go is sized for the
// RWMutex layout.)
var _ = [1]struct{}{}[unsafe.Sizeof(stripe{})%64]

func TestStripePadding(t *testing.T) {
	if s := unsafe.Sizeof(stripe{}); s%64 != 0 {
		t.Errorf("stripe size %d bytes is not a cache-line multiple", s)
	}
}
