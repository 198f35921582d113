package wssec

// Differential fuzzing for the streaming seam: for any envelope derived
// from the fuzz input, the streamed encoder must emit exactly the buffered
// bytes for every encoding, the secured wrapper included (the
// degenerate-chunking guarantee that lets streamed and buffered peers
// interoperate), and the streamed decoder must accept any hostile
// re-slicing of the byte stream — chunk boundaries carry no meaning —
// producing the same tree as the buffered parse.

import (
	"bytes"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
)

// chunkGather collects a streamed encode into one buffer, checking the
// sequencing contract as it goes.
type chunkGather struct {
	t    *testing.T
	buf  []byte
	done bool
}

func (g *chunkGather) WriteChunk(p *core.Payload, last bool) error {
	if g.done {
		g.t.Error("WriteChunk after last chunk")
	}
	g.buf = append(g.buf, p.Bytes()...)
	p.Release()
	if last {
		g.done = true
	}
	return nil
}

func (g *chunkGather) Abort() {}

// resliceSource replays a byte stream as chunks cut at fuzz-chosen
// boundaries, including empty chunks.
type resliceSource struct {
	data      []byte
	sizes     []byte
	i         int
	done      bool
	prevEmpty bool
}

func (s *resliceSource) ReadChunk() (*core.Payload, bool, error) {
	n := 7
	if len(s.sizes) > 0 {
		n = int(s.sizes[s.i%len(s.sizes)]) % 64
		s.i++
	}
	// Empty chunks are legal and worth covering, but an all-zero size
	// schedule must not starve the decoder forever.
	if n == 0 && s.prevEmpty {
		n = 1
	}
	s.prevEmpty = n == 0
	if n > len(s.data) {
		n = len(s.data)
	}
	p := core.NewPayloadFrom(s.data[:n])
	s.data = s.data[n:]
	last := len(s.data) == 0
	s.done = last
	return p, last, nil
}

func (s *resliceSource) Abort() { s.done = true }

// fuzzEnvelope maps arbitrary bytes to a well-defined envelope, biased
// toward the shapes the chunked encoders special-case: long arrays that
// span chunks and strings full of escapable characters.
func fuzzEnvelope(data []byte) *core.Envelope {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		b := data[at]
		at++
		return b
	}
	op := bxdm.NewElement(bxdm.PName("urn:svc", "s", "op"))
	op.DeclareNamespace("s", "urn:svc")
	const alphabet = "ab0 &<>\r\t\"'x.-"
	for k, n := 0, 1+int(next()%4); k < n; k++ {
		name := bxdm.Name("urn:svc", "f")
		switch next() % 4 {
		case 0:
			op.Append(bxdm.NewLeaf(name, int64(next())<<8|int64(next())))
		case 1:
			items := make([]int32, int(next())*4)
			for j := range items {
				items[j] = int32(j * 11)
			}
			op.Append(bxdm.NewArray(name, items))
		case 2:
			items := make([]float64, int(next()))
			for j := range items {
				items[j] = float64(j) / 16
			}
			op.Append(bxdm.NewArray(name, items))
		case 3:
			b := make([]byte, int(next()))
			for j := range b {
				b[j] = alphabet[int(next())%len(alphabet)]
			}
			op.Append(bxdm.NewLeaf(name, string(b)))
		}
	}
	return core.NewEnvelope(op)
}

func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte{3, 1, 200, 1, 100, 3, 9}, []byte{1, 0, 63}, uint16(1))
	f.Add([]byte{2, 3, 30, 0, 250, 13, 8, 7}, []byte{5}, uint16(4096))
	f.Add(bytes.Repeat([]byte{1, 1, 255}, 4), []byte{0, 0, 1}, uint16(17))
	f.Fuzz(func(t *testing.T, shape, sizes []byte, window uint16) {
		env := fuzzEnvelope(shape)
		chunkBytes := 1 + int(window)
		for _, enc := range []core.Encoding{
			core.BXSAEncoding{},
			core.XMLEncoding{},
			Secure(core.BXSAEncoding{}, key),
			Secure(core.XMLEncoding{}, key),
		} {
			codec := core.NewCodec(enc)
			buffered, err := codec.EncodeBytes(env)
			if err != nil {
				t.Fatalf("%s: buffered encode: %v", enc.Name(), err)
			}
			sink := &chunkGather{t: t}
			if err := codec.EncodeChunks(env, chunkBytes, sink); err != nil {
				t.Fatalf("%s: streamed encode: %v", enc.Name(), err)
			}
			if !sink.done {
				t.Fatalf("%s: streamed encode never sent a last chunk", enc.Name())
			}
			if !bytes.Equal(sink.buf, buffered) {
				t.Errorf("%s: streamed bytes differ from buffered\n got %q\nwant %q",
					enc.Name(), sink.buf, buffered)
			}
			oracle, err := codec.DecodeEnvelope(buffered)
			if err != nil {
				t.Fatalf("%s: buffered decode: %v", enc.Name(), err)
			}
			back, err := codec.DecodeChunks(&resliceSource{data: sink.buf, sizes: sizes})
			if err != nil {
				t.Fatalf("%s: streamed decode: %v", enc.Name(), err)
			}
			if !back.Equal(oracle) {
				t.Errorf("%s: streamed decode differs from buffered parse", enc.Name())
			}
		}
	})
}
