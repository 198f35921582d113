package wssec

import (
	"crypto/hmac"
	"crypto/sha256"
	"runtime/debug"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/core"
)

// TestMarshalAppendLeavesTagRoom ties bxsa.MarshalAppend's trailer room to
// the tag Secured.AppendEncode appends: a grown destination must keep at
// least sha256.Size spare bytes past the BXSA message.
func TestMarshalAppendLeavesTagRoom(t *testing.T) {
	doc := &bxdm.Document{Children: []bxdm.Node{bxdm.NewArray(bxdm.LocalName("a"), make([]float64, 1000))}}
	out, err := bxsa.MarshalAppend(make([]byte, 0, 8), doc, bxsa.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if spare := cap(out) - len(out); spare < sha256.Size {
		t.Fatalf("grown buffer keeps %d spare bytes, want >= %d (sha256.Size)", spare, sha256.Size)
	}
}

// TestSecuredGrowOnceAlloc: when the destination is too small — the first
// encode of a shape larger than any before it — the inner encoding's one
// growth must already leave room for the trailing tag. Otherwise the tag's
// append grows and copies the whole message a second time. A secured
// encode into a small buffer may therefore allocate only what the inner
// encode and the HMAC themselves allocate. GC is off so sync.Pool contents
// survive between runs and the counts are exact.
func TestSecuredGrowOnceAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	key := []byte("0123456789abcdef")
	s := Secure(core.BXSAEncoding{}, key)
	var tag [sha256.Size]byte
	small := make([]byte, 0, 64) // a pooled buffer sized for a small message
	hmacOnly := testing.AllocsPerRun(5, func() {
		mac := hmac.New(sha256.New, key)
		mac.Write(tag[:])
		mac.Sum(tag[:0])
	})
	for _, n := range []int{100_000, 600_000} {
		doc := &bxdm.Document{Children: []bxdm.Node{bxdm.NewArray(bxdm.LocalName("a"), make([]float64, n))}}
		inner := testing.AllocsPerRun(5, func() {
			if _, err := s.Inner.AppendEncode(small, doc); err != nil {
				t.Fatal(err)
			}
		})
		secured := testing.AllocsPerRun(5, func() {
			if _, err := s.AppendEncode(small, doc); err != nil {
				t.Fatal(err)
			}
		})
		if secured > inner+hmacOnly {
			t.Errorf("n=%d: secured encode = %.0f allocs, want <= %.0f (inner) + %.0f (HMAC)", n, secured, inner, hmacOnly)
		}
	}
}
