// Package muxbind implements a stream-multiplexed framed transport: many
// concurrent SOAP request/response exchanges interleaved over one TCP
// connection, HTTP/2-style. It extends the tcpbind frame (paper §5.3's
// "dump to TCP" binding) with a frame type and a stream ID, so a handful
// of connections can carry the concurrency that tcpbind needs one socket
// per in-flight call to reach.
//
// Wire format per frame:
//
//	magic   2 bytes  "BX"
//	version 1 byte   0x02
//	type    1 byte   0=DATA 1=RST 2=CREDIT 3=GOAWAY 4=CHUNK
//	stream  VLS      stream ID (0 = connection control)
//
// followed by a type-specific body:
//
//	DATA:    ctLen VLS, ct bytes, payloadLen VLS, payload bytes
//	RST:     code VLS, detailLen VLS, detail bytes
//	CREDIT:  n VLS (stream must be 0; grants n new streams)
//	GOAWAY:  code VLS, detailLen VLS, detail bytes (stream must be 0)
//	CHUNK:   flags 1 byte (0x01 first, 0x02 last), then on first:
//	         ctLen VLS, ct bytes; always: payloadLen VLS, payload bytes
//
// A message whose first chunk is also its last — every buffered message —
// is one DATA frame. A longer one is a CHUNK run on one stream: exactly one
// frame carries the first flag (and the content type), exactly one carries
// last (a CHUNK frame carrying both is accepted as a one-chunk message).
// Chunk frames from different streams interleave freely, which is what lets
// a multi-hundred-megabyte streamed call share a connection with small
// exchanges instead of wedging them (see stream.go for the send-pacing and
// receive-window bounds inside one message).
//
// Flow control is credit-based at stream granularity: the server advertises
// an initial window with a CREDIT frame immediately after accepting the
// connection; opening a stream consumes one credit — a chunked message
// consumes one credit for its whole run — and the server returns one credit
// (batched into a single CREDIT frame per write flush) each time a stream
// completes — by response or by RST. A client that opens more streams than
// its window is violating the protocol and is reset. Both sides run one
// message path: a buffered exchange is the one-chunk case of the streamed
// one. Responses are windowed only in answer to CHUNK requests and only
// when the server is configured for it (respond-in-kind).
//
// The server schedules streams onto a bounded worker pool shared across
// connections. When the dispatch queue is full, admission control sheds the
// stream with RST(overload) instead of queueing unboundedly; the client
// surfaces that as a classified core.TransportError wrapping ErrOverloaded,
// so pooled retry logic treats it like any other retryable transport
// failure without retiring the (healthy, shared) connection.
//
// Wire failures escape this package classified (core.TransportError /
// core.ErrBindingPoisoned); paylint's errclass analyzer enforces that via
// the marker below.
//
//paylint:classify-transport-errors
package muxbind
