package core

import (
	"bytes"
	"testing"
)

// endlessSource is a hostile peer: chunk after chunk, never a last one.
type endlessSource struct {
	chunk   []byte
	reads   int
	aborted bool
}

func (s *endlessSource) ReadChunk() (*Payload, bool, error) {
	s.reads++
	p := NewPayload(len(s.chunk))
	p.Write(s.chunk)
	return p, false, nil
}

func (s *endlessSource) Abort() { s.aborted = true }

// TestGatherChunksBounded: a peer that never sets last cannot grow the
// gathered payload past the limit — the gather fails once the next chunk
// would cross it, holding nothing. (The exported bound is 1 GiB; the test
// drives the same loop with a small one.)
func TestGatherChunksBounded(t *testing.T) {
	base := PayloadsInUse()
	const limit = 1 << 20
	src := &endlessSource{chunk: bytes.Repeat([]byte{'x'}, 64<<10)}
	p, err := gatherChunks(src, limit)
	if err == nil {
		p.Release()
		t.Fatal("endless chunk sequence gathered without error")
	}
	if max := limit/len(src.chunk) + 1; src.reads > max {
		t.Errorf("gather read %d chunks before giving up, want <= %d", src.reads, max)
	}
	if got := PayloadsInUse(); got != base {
		t.Errorf("PayloadsInUse = %d, want %d — failed gather kept a payload", got, base)
	}
	if MaxMessageSize != 1<<30 {
		t.Errorf("MaxMessageSize = %d, want the 1 GiB frame bound", MaxMessageSize)
	}
}

// TestGatherChunksDegenerateCases: a one-chunk message is returned as the
// chunk itself; a longer one is concatenated in order.
func TestGatherChunksDegenerateCases(t *testing.T) {
	base := PayloadsInUse()
	one := NewPayloadFrom([]byte("whole"))
	got, err := GatherChunks(ResumeSource(one, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != one {
		t.Error("one-chunk message was copied instead of handed through")
	}
	got.Release()

	pipe := NewChunkPipe(3)
	for i, part := range []string{"ab", "", "cd"} {
		pipe.WriteChunk(NewPayloadFrom([]byte(part)), i == 2)
	}
	got, err = GatherChunks(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Bytes()) != "abcd" {
		t.Errorf("gathered %q, want %q", got.Bytes(), "abcd")
	}
	got.Release()
	if n := PayloadsInUse(); n != base {
		t.Errorf("PayloadsInUse = %d, want %d", n, base)
	}
}
