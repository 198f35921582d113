package core

// Differential fuzzing for the template fast paths: for any envelope the
// deterministic generator can derive from the fuzz input, the templated
// codec must produce byte-identical encodes and tree-identical decodes
// against the generic codec, for both shipped encodings. The generator
// leans into the hostile corners on purpose — escapable characters,
// carriage returns, whitespace-only strings, empty arrays — because those
// are exactly the inputs where a template must either agree with the
// generic path or refuse to compile.

import (
	"bytes"
	"testing"

	"bxsoap/internal/bxdm"
)

// fuzzReader derives bounded choices from the fuzz input, yielding zeros
// once exhausted so every input maps to a well-defined envelope.
type fuzzReader struct {
	data []byte
	i    int
}

func (r *fuzzReader) byte() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

func (r *fuzzReader) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

// fuzzAlphabet mixes safe characters with every byte the XML escaper and
// parser treat specially.
const fuzzAlphabet = "ab0 &<>\r\t\"'x.-"

func (r *fuzzReader) str() string {
	n := int(r.byte() % 8)
	b := make([]byte, n)
	for k := range b {
		b[k] = fuzzAlphabet[int(r.byte())%len(fuzzAlphabet)]
	}
	return string(b)
}

var fuzzNames = []string{"n", "tag", "vals", "row", "acc"}

func envFromFuzz(data []byte) *Envelope {
	r := &fuzzReader{data: data}
	op := bxdm.NewElement(bxdm.PName("urn:svc", "s", "op"))
	op.DeclareNamespace("s", "urn:svc")
	children := 1 + int(r.byte()%4)
	for k := 0; k < children; k++ {
		name := bxdm.Name("urn:svc", fuzzNames[int(r.byte())%len(fuzzNames)])
		switch r.byte() % 7 {
		case 0:
			op.Append(bxdm.NewLeafValue(name, bxdm.Int32Value(int32(r.u64()))))
		case 1:
			op.Append(bxdm.NewLeafValue(name, bxdm.Int64Value(int64(r.u64()))))
		case 2:
			op.Append(bxdm.NewLeafValue(name, bxdm.BoolValue(r.byte()%2 == 1)))
		case 3:
			op.Append(bxdm.NewLeafValue(name, bxdm.StringValue(r.str())))
		case 4:
			items := make([]int32, int(r.byte()%5))
			for j := range items {
				items[j] = int32(r.u64())
			}
			op.Append(bxdm.NewArray(name, items))
		case 5:
			items := make([]float64, int(r.byte()%5))
			for j := range items {
				items[j] = float64(int64(r.u64())) / 16
			}
			op.Append(bxdm.NewArray(name, items))
		case 6:
			op.Append(bxdm.NewText(r.str()))
		}
	}
	env := NewEnvelope(op)
	if r.byte()%2 == 1 {
		env.AddHeader(bxdm.NewLeaf(bxdm.Name("urn:h", "txid"), int64(r.u64())))
	}
	return env
}

func FuzzPlanRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 3, 4, 1, 2, 0, 1, 5, 6, 7})       // string leaves, hostile chars
	f.Add([]byte{2, 1, 4, 3, 2, 5, 2, 0xff, 0xff, 0xff}) // arrays
	f.Add([]byte{4, 0, 6, 2, 1, 1, 3, 3, 3, 3, 3, 3, 3}) // text + bool + string
	f.Add(bytes.Repeat([]byte{9, 1, 7, 0, 250, 13}, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		env := envFromFuzz(data)
		for _, enc := range []Encoding{BXSAEncoding{}, XMLEncoding{}} {
			gen := NewCodec[Encoding](enc)
			tpl := newTemplatedCodec(enc, 8, nil)
			want, err := gen.EncodePayload(env)
			if err != nil {
				// The generator only emits encodable trees; a generic
				// failure would be its own bug.
				t.Fatalf("%s: generic encode: %v", enc.Name(), err)
			}
			// Two passes: the first encode compiles the shape, the second
			// must take the templated path and still match byte for byte.
			for pass := 0; pass < 2; pass++ {
				got, err := tpl.EncodePayload(env)
				if err != nil {
					t.Fatalf("%s pass %d: templated encode: %v", enc.Name(), pass, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s pass %d: templated encode differs\n got %q\nwant %q",
						enc.Name(), pass, got.Bytes(), want.Bytes())
				}
				got.Release()
			}
			oracle, oerr := gen.DecodeEnvelope(want.Bytes())
			for pass := 0; pass < 2; pass++ {
				back, err := tpl.DecodeEnvelope(want.Bytes())
				if (err == nil) != (oerr == nil) {
					t.Fatalf("%s pass %d: decode error mismatch: %v vs %v", enc.Name(), pass, err, oerr)
				}
				if err == nil && !back.Equal(oracle) {
					t.Errorf("%s pass %d: templated decode differs from generic parse", enc.Name(), pass)
				}
			}
			want.Release()
		}
	})
}

// FuzzPlanAdmittedSplice reaches the encode splice under admission: a
// shape's first encode is only recorded and its second compiles, so the
// third is the first that can take the templated path.
func FuzzPlanAdmittedSplice(f *testing.F) {
	f.Add([]byte{3, 0, 3, 4, 1, 2, 0, 1, 5, 6, 7})
	f.Add([]byte{2, 1, 4, 3, 2, 5, 2, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 6, 2, 1, 1, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		env := envFromFuzz(data)
		for _, enc := range []Encoding{BXSAEncoding{}, XMLEncoding{}} {
			gen := NewCodec[Encoding](enc)
			tpl := newTemplatedCodec(enc, 8, nil)
			want, err := gen.EncodePayload(env)
			if err != nil {
				t.Fatalf("%s: generic encode: %v", enc.Name(), err)
			}
			for pass := 0; pass < 3; pass++ {
				got, err := tpl.EncodePayload(env)
				if err != nil {
					t.Fatalf("%s pass %d: templated encode: %v", enc.Name(), pass, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s pass %d: templated encode differs\n got %q\nwant %q",
						enc.Name(), pass, got.Bytes(), want.Bytes())
				}
				got.Release()
			}
			want.Release()
		}
	})
}
