package muxbind

import (
	"bufio"
	"fmt"
	"io"

	"bxsoap/internal/core"
	"bxsoap/internal/framing"
	"bxsoap/internal/obs"
	"bxsoap/internal/vls"
)

const (
	magic0, magic1 = framing.Magic0, framing.Magic1
	version        = 0x02

	maxContentTypeLen = framing.MaxContentTypeLen

	// maxDetailLen bounds the human-readable detail carried by RST frames.
	// Detail is diagnostic text, not data; a peer that needs more than this
	// is up to something.
	maxDetailLen = 256

	// maxCreditGrant bounds a single CREDIT frame's grant. The grant loop
	// on the receive side is linear in n, so an unbounded n would let a
	// hostile peer buy a long spin with five bytes.
	maxCreditGrant = 1 << 20
)

// Frame types. Stream 0 is reserved for connection control: CREDIT must
// use it, DATA and RST must not. Type 0x03 is unassigned.
const (
	fData   = 0x00
	fRst    = 0x01
	fCredit = 0x02
	fChunk  = 0x04
)

// CHUNK frame flags. A logical message is a run of CHUNK frames on one
// stream: exactly one carries chunkFirst (and the content type), exactly
// one carries chunkLast; a single-chunk message carries both.
const (
	chunkFirst = 0x01
	chunkLast  = 0x02
)

// RST codes.
const (
	// RstOverload: the server's admission control refused the stream; the
	// request was never dispatched and is safe to retry elsewhere.
	RstOverload = 1
	// RstCancel: the peer abandoned the stream (context cancellation).
	RstCancel = 2
	// RstProtocol: the stream violated framing or flow-control rules.
	RstProtocol = 3
	// RstInternal: the server failed to produce a response (encode error).
	RstInternal = 4
)

// rstCodeName returns a stable human-readable name for an RST code
// (unknown codes print numerically).
func rstCodeName(code uint64) string {
	switch code {
	case RstOverload:
		return "overload"
	case RstCancel:
		return "cancel"
	case RstProtocol:
		return "protocol"
	case RstInternal:
		return "internal"
	}
	return fmt.Sprintf("code %d", code)
}

// frame is one decoded mux frame. Exactly the fields implied by typ are
// meaningful; payload is non-nil only for DATA frames, and the caller owns
// it.
type frame struct {
	typ     byte
	stream  uint64
	ct      string        // DATA; CHUNK with first set
	payload *core.Payload // DATA, CHUNK (owned by caller)
	code    uint64        // RST
	detail  string        // RST
	credit  uint64        // CREDIT
	first   bool          // DATA (always), CHUNK
	last    bool          // DATA (always), CHUNK
}

// frameReader holds one connection's receive-side reuse state: scratch
// buffers for the bounded string fields and a cache of the content type's
// string form (the same peer sends the same content type on every frame).
type frameReader struct {
	ct            framing.ContentType
	detailScratch [maxDetailLen]byte
}

// read decodes one frame; for DATA frames the caller owns f.payload and
// must release it. Every length prefix is validated against its bound
// BEFORE any buffer is sized from it, so a hostile prefix can never trigger
// a large allocation (and the payload itself arrives through
// core.ReadPayload's chunked growth).
//
//paylint:returns owned
func (fr *frameReader) read(r *bufio.Reader) (frame, error) {
	var f frame
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return f, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return f, fmt.Errorf("muxbind: bad frame magic %x", hdr[:2])
	}
	if hdr[2] != version {
		return f, fmt.Errorf("muxbind: unsupported frame version %d", hdr[2])
	}
	f.typ = hdr[3]
	stream, err := vls.ReadUint(r)
	if err != nil {
		return f, err
	}
	f.stream = stream
	switch f.typ {
	case fData, fChunk:
		if stream == 0 {
			return f, fmt.Errorf("muxbind: frame type %#x on control stream 0", f.typ)
		}
		// A DATA frame is a whole message: its one chunk is first and last.
		f.first, f.last = true, true
		if f.typ == fChunk {
			flags, err := r.ReadByte()
			if err != nil {
				return f, err
			}
			if flags&^byte(chunkFirst|chunkLast) != 0 {
				return f, fmt.Errorf("muxbind: reserved chunk flags %#x", flags)
			}
			f.first = flags&chunkFirst != 0
			f.last = flags&chunkLast != 0
		}
		if f.first {
			if f.ct, err = fr.ct.Read(r); err != nil {
				return f, err
			}
		}
		f.payload, err = framing.ReadBody(r)
		return f, err
	case fRst:
		if stream == 0 {
			return f, fmt.Errorf("muxbind: RST frame on control stream 0")
		}
		return fr.readCodeDetail(r, f)
	case fCredit:
		if stream != 0 {
			return f, fmt.Errorf("muxbind: CREDIT frame on stream %d", stream)
		}
		n, err := vls.ReadUint(r)
		if err != nil {
			return f, err
		}
		if n == 0 || n > maxCreditGrant {
			return f, fmt.Errorf("muxbind: credit grant %d out of range", n)
		}
		f.credit = n
		return f, nil
	}
	return f, fmt.Errorf("muxbind: unknown frame type %#x", f.typ)
}

// readCodeDetail decodes an RST body into f.
func (fr *frameReader) readCodeDetail(r *bufio.Reader, f frame) (frame, error) {
	code, err := vls.ReadUint(r)
	if err != nil {
		return f, err
	}
	f.code = code
	dLen, err := vls.ReadUint(r)
	if err != nil {
		return f, err
	}
	if dLen > maxDetailLen {
		return f, fmt.Errorf("muxbind: detail length %d too large", dLen)
	}
	d := fr.detailScratch[:dLen]
	if _, err := io.ReadFull(r, d); err != nil {
		return f, err
	}
	f.detail = string(d)
	return f, nil
}

// The write helpers append one frame to a bufio.Writer WITHOUT flushing:
// the session/connection writer goroutines batch several frames per flush,
// which is the coalescing that lets small concurrent calls share a syscall
// (and, over netsim, a turnaround). bufio.Writer latches its first error,
// so only the final Flush's error needs checking.

func writeHeader(w *bufio.Writer, typ byte, stream uint64) {
	w.WriteByte(magic0)
	w.WriteByte(magic1)
	w.WriteByte(version)
	w.WriteByte(typ)
	vls.WriteUint(w, stream)
}

func writeData(w *bufio.Writer, stream uint64, payload []byte, contentType string) {
	writeHeader(w, fData, stream)
	framing.WriteContentType(w, contentType)
	framing.WriteBody(w, payload)
}

func writeChunk(w *bufio.Writer, stream uint64, payload []byte, contentType string, first, last bool) {
	writeHeader(w, fChunk, stream)
	var flags byte
	if first {
		flags |= chunkFirst
	}
	if last {
		flags |= chunkLast
	}
	w.WriteByte(flags)
	if first {
		framing.WriteContentType(w, contentType)
	}
	framing.WriteBody(w, payload)
}

func writeRst(w *bufio.Writer, stream, code uint64, detail string) {
	if len(detail) > maxDetailLen {
		detail = detail[:maxDetailLen]
	}
	writeHeader(w, fRst, stream)
	vls.WriteUint(w, code)
	vls.WriteUint(w, uint64(len(detail)))
	w.WriteString(detail)
}

func writeCredit(w *bufio.Writer, n uint64) {
	writeHeader(w, fCredit, 0)
	vls.WriteUint(w, n)
}

// qframe is one frame queued for a connection's writer goroutine (either
// side's). Payload ownership transfers with the struct: whoever dequeues it
// — the writer, or a failure drain — releases it.
type qframe struct {
	typ     byte
	stream  uint64
	payload *core.Payload
	ct      string
	code    uint64
	detail  string
	first   bool // CHUNK
	last    bool // CHUNK
}

// chunkFrame frames one chunk of an outbound message, and is the one place
// either side picks the wire form: a message whose first chunk is also its
// last is one DATA frame — a buffered message, byte for byte — and takes no
// pacing slot; anything longer is a run of CHUNK frames, the first one
// carrying the content type.
func chunkFrame(stream uint64, ct string, p *core.Payload, first, last bool) qframe {
	typ := byte(fChunk)
	if first && last {
		typ = fData
	}
	return qframe{typ: typ, stream: stream, payload: p, ct: ct, first: first, last: last}
}

// write appends the frame to the write buffer (no flush), counts it,
// releases its payload, and returns a CHUNK frame's pacing slot to slots.
// bufio latches errors, so the writer loop's flush sees any failure here.
func (w qframe) write(bw *bufio.Writer, o *obs.Observer, slots chan<- struct{}) {
	switch w.typ {
	case fData:
		writeData(bw, w.stream, w.payload.Bytes(), w.ct)
		o.ChunkSent(w.payload.Len(), true)
	case fChunk:
		writeChunk(bw, w.stream, w.payload.Bytes(), w.ct, w.first, w.last)
		o.ChunkSent(w.payload.Len(), w.last)
		putSlot(slots)
	case fRst:
		writeRst(bw, w.stream, w.code, w.detail)
	}
	w.payload.Release()
}

// putSlot returns one chunk pacing slot. Non-blocking: at most
// maxChunkSlots are ever outstanding, so the channel has room by
// construction.
func putSlot(slots chan<- struct{}) {
	select {
	case slots <- struct{}{}:
	default:
	}
}
