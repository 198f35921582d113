package a

import "testing"

// A test is not a caller.
func TestAll(t *testing.T) {
	Dead()
	deadLocal()
	Kept()
}
