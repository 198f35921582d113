package muxbind

import (
	"bufio"
	"bytes"
	"testing"

	"bxsoap/internal/core"
	"bxsoap/internal/vls"
)

// frameBytes encodes one frame via the production writers, for seeds and
// round-trip checks.
func frameBytes(build func(w *bufio.Writer)) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	build(w)
	w.Flush()
	return buf.Bytes()
}

// FuzzFrame drives the mux frame decoder with arbitrary bytes: hostile
// stream IDs, lying lengths, out-of-range credit grants, control frames on
// data streams. The decoder must never panic, never allocate ahead of a
// validated bound, and never leak a pooled payload — every payload it
// returns is released here, and PayloadsInUse must balance.
func FuzzFrame(f *testing.F) {
	f.Add(frameBytes(func(w *bufio.Writer) { writeData(w, 1, []byte("hello"), "application/x-bxsa") }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeData(w, 1<<40, bytes.Repeat([]byte{0xAB}, 300), "") }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeRst(w, 7, RstOverload, "dispatch queue full") }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeRst(w, 1, RstCancel, "") }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeCredit(w, 1) }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeCredit(w, maxCreditGrant) }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeGoaway(w, GoawayShutdown, "bye") }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeChunk(w, 2, []byte("first"), "application/x-bxsa", true, false) }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeChunk(w, 2, []byte("mid"), "", false, false) }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeChunk(w, 2, []byte("last"), "", false, true) }))
	f.Add(frameBytes(func(w *bufio.Writer) { writeChunk(w, 3, []byte("solo"), "text/xml", true, true) }))
	// Hostile shapes: DATA on stream 0, CREDIT on a data stream, oversized
	// length prefixes, truncations, wrong magic/version/type.
	f.Add([]byte{magic0, magic1, version, fData, 0x00})
	f.Add([]byte{magic0, magic1, version, fChunk, 0x00, 0x01})
	f.Add([]byte{magic0, magic1, version, fChunk, 0x01, 0xF0})
	f.Add([]byte{magic0, magic1, version, fChunk, 0x01, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{magic0, magic1, version, fCredit, 0x05, 0x01})
	f.Add([]byte{magic0, magic1, version, fData, 0x01, 0x01, 'x', 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{magic0, magic1, version, 0x7F, 0x01})
	f.Add([]byte{magic0, magic1, 0x01, fData, 0x01})
	f.Add([]byte{'B', 'Y', version, fData, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := core.PayloadsInUse()
		var fr frameReader
		br := bufio.NewReader(bytes.NewReader(data))
		// Decode the whole input as a frame sequence, as the session and
		// server readers do, so cross-frame state (the content-type cache)
		// is fuzzed too.
		for {
			f, err := fr.read(br)
			if err != nil {
				break
			}
			if f.typ == fData || f.typ == fChunk {
				if f.payload == nil {
					t.Fatalf("%#x frame decoded with nil payload", f.typ)
				}
				if f.payload.Len() > MaxFrameSize {
					t.Fatalf("payload length %d exceeds MaxFrameSize", f.payload.Len())
				}
				f.payload.Release()
			} else if f.payload != nil {
				t.Fatalf("%#x frame carries a payload", f.typ)
			}
			if f.typ == fCredit && (f.credit == 0 || f.credit > maxCreditGrant) {
				t.Fatalf("credit grant %d escaped its bounds", f.credit)
			}
			if (f.typ == fRst || f.typ == fGoaway) && len(f.detail) > maxDetailLen {
				t.Fatalf("detail length %d escaped its bound", len(f.detail))
			}
		}
		if after := core.PayloadsInUse(); after != before {
			t.Fatalf("PayloadsInUse %d -> %d: decoder leaked a payload", before, after)
		}
	})
}

// TestFrameRoundTrip pins the codec: every frame type encodes and decodes
// back to itself through the production reader and writers.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want frame
	}{
		{
			"data",
			frameBytes(func(w *bufio.Writer) { writeData(w, 9, []byte("payload"), "text/xml") }),
			frame{typ: fData, stream: 9, ct: "text/xml", first: true, last: true},
		},
		{
			"chunk first",
			frameBytes(func(w *bufio.Writer) { writeChunk(w, 5, []byte("payload"), "text/xml", true, false) }),
			frame{typ: fChunk, stream: 5, ct: "text/xml", first: true},
		},
		{
			"chunk last",
			frameBytes(func(w *bufio.Writer) { writeChunk(w, 5, []byte("payload"), "", false, true) }),
			frame{typ: fChunk, stream: 5, last: true},
		},
		{
			"rst",
			frameBytes(func(w *bufio.Writer) { writeRst(w, 3, RstOverload, "full") }),
			frame{typ: fRst, stream: 3, code: RstOverload, detail: "full"},
		},
		{
			"credit",
			frameBytes(func(w *bufio.Writer) { writeCredit(w, 128) }),
			frame{typ: fCredit, credit: 128},
		},
		{
			"goaway",
			frameBytes(func(w *bufio.Writer) { writeGoaway(w, GoawayShutdown, "bye") }),
			frame{typ: fGoaway, code: GoawayShutdown, detail: "bye"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fr frameReader
			f, err := fr.read(bufio.NewReader(bytes.NewReader(tc.raw)))
			if err != nil {
				t.Fatal(err)
			}
			if f.typ != tc.want.typ || f.stream != tc.want.stream || f.ct != tc.want.ct ||
				f.code != tc.want.code || f.detail != tc.want.detail || f.credit != tc.want.credit ||
				f.first != tc.want.first || f.last != tc.want.last {
				t.Errorf("decoded %+v, want %+v", f, tc.want)
			}
			if f.typ == fData || f.typ == fChunk {
				if string(f.payload.Bytes()) != "payload" {
					t.Errorf("payload = %q", f.payload.Bytes())
				}
				f.payload.Release()
			}
		})
	}
}

// TestFrameHostileLengthBoundsAllocation: a frame header claiming a huge
// payload or content type must be rejected before any allocation is sized
// from it — the mux-frame counterpart of tcpbind's regression test, here
// with the extended (type+stream) header in front of the length fields.
func TestFrameHostileLengthBoundsAllocation(t *testing.T) {
	build := func(ctLen, payloadLen uint64) []byte {
		return frameBytes(func(w *bufio.Writer) {
			writeHeader(w, fData, 1)
			// Hand-encode hostile lengths with no bytes behind them.
			vls.WriteUint(w, ctLen)
			if ctLen <= maxContentTypeLen {
				w.Write(make([]byte, ctLen))
				vls.WriteUint(w, payloadLen)
			}
		})
	}
	var fr frameReader
	if _, err := fr.read(bufio.NewReader(bytes.NewReader(build(1<<30, 0)))); err == nil {
		t.Error("hostile content-type length accepted")
	}
	if _, err := fr.read(bufio.NewReader(bytes.NewReader(build(4, uint64(MaxFrameSize)+1)))); err == nil {
		t.Error("hostile payload length accepted")
	}
	// In-range but lying length: must fail on truncation without having
	// allocated the claimed size up front (ReadPayload grows chunkwise).
	if _, err := fr.read(bufio.NewReader(bytes.NewReader(build(4, uint64(MaxFrameSize))))); err == nil {
		t.Error("truncated frame with in-range length accepted")
	}
}
