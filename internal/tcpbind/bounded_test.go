package tcpbind

import (
	"bufio"
	"bytes"
	"context"
	"runtime"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/framing"
	"bxsoap/internal/obs"
	"bxsoap/internal/vls"
)

// TestStreamedHighWaterUnderBudget is the bounded-memory guarantee of the
// streaming pipeline, asserted through the observability gauges: a message
// far larger than the chunk window flows end to end while the number of
// simultaneously-live pooled payloads and the bytes in flight between
// encoder and decoder both stay under a budget that does not scale with
// the message. (A buffered exchange of the same message would hold the
// whole body in one payload on each side.)
func TestStreamedHighWaterUnderBudget(t *testing.T) {
	const chunk = 64 << 10
	o := obs.New(obs.WithNode("budget-test"))
	core.SetPayloadObserver(o)
	t.Cleanup(func() { core.SetPayloadObserver(nil) })

	addr, stop := echoServer(t, core.WithStreaming(chunk), core.WithObserver(o))
	defer stop()
	eng := core.NewEngine(core.BXSAEncoding{}, New(NetDialer, addr, WithObserver(o)),
		core.WithStreaming(chunk), core.WithObserver(o))
	defer eng.Close()

	req, want := bigArrayEnvelope(4 << 20) // ~16 MiB of array data per direction
	resp, err := eng.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bxdm.Equal(resp.Body(), want) {
		t.Fatal("echoed body differs")
	}

	// Payload-count budget: the pipeline holds a handful of chunk windows
	// at a time (encoder spill, wire, decoder), never the ~256 windows the
	// message comprises, and nothing near a whole-message payload count
	// either side of the wire.
	if hw := o.GaugeHighWater(obs.PayloadsInUse); hw > 64 {
		t.Errorf("payload high-water = %d concurrent payloads, want <= 64 (message is %d windows)",
			hw, (16<<20)/chunk)
	}
	// Byte budget: chunks enter the in-flight account when handed to the
	// transport and leave when the peer's decoder takes them, so the
	// high-water is the pipeline's true buffering — a few windows plus
	// socket buffers, far under the 16 MiB body (and under the pipeline's
	// 16 MiB design budget with room to spare).
	if hw := o.GaugeHighWater(obs.StreamBytesInFlight); hw > 8<<20 {
		t.Errorf("stream bytes in flight high-water = %d, want <= %d for a %d-byte body",
			hw, 8<<20, 16<<20)
	}
}

// TestHostileChunkLengthBoundsAllocation mirrors the buffered reader's
// pre-allocation regression test for the version-0x03 sub-frame: a chunk
// header may declare any length up to MaxFrameSize, but the reader must
// grow its buffer only as bytes actually arrive. A hostile peer promising
// a huge chunk and sending a few bytes costs a chunk or two of memory,
// not the declared size.
func TestHostileChunkLengthBoundsAllocation(t *testing.T) {
	script := []byte{0x00} // flags: not last, no reserved bits
	script = vls.AppendUint(script, uint64(framing.MaxFrameSize)-1)
	script = append(script, "only a few bytes"...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	payload, _, err := readChunkFrame(bufio.NewReader(bytes.NewReader(script)))
	runtime.ReadMemStats(&after)
	if err == nil {
		payload.Release()
		t.Fatal("truncated hostile chunk accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("hostile chunk length drove %d bytes of allocation, want chunked growth only", got)
	}

	// A declared length past the limit must be rejected before any
	// allocation is sized from it.
	script = []byte{0x00}
	script = vls.AppendUint(script, uint64(framing.MaxFrameSize)+1)
	runtime.GC()
	runtime.ReadMemStats(&before)
	payload, _, err = readChunkFrame(bufio.NewReader(bytes.NewReader(script)))
	runtime.ReadMemStats(&after)
	if err == nil {
		payload.Release()
		t.Fatal("over-limit chunk length accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("over-limit chunk length drove %d bytes of allocation before rejection", got)
	}

	// Reserved flag bits are rejected at the flags byte.
	script = []byte{0xF0}
	script = vls.AppendUint(script, 4)
	script = append(script, "data"...)
	if payload, _, err := readChunkFrame(bufio.NewReader(bytes.NewReader(script))); err == nil {
		payload.Release()
		t.Fatal("reserved chunk flag bits accepted")
	}
}
