package bxsa

import (
	"fmt"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/vls"
	"bxsoap/internal/xbs"
)

// Scanner provides the "accelerated sequential access" of §4.1: the Size
// field in every frame lets it hop from frame to frame without parsing frame
// contents. A scanner walks the frames at one nesting level; Descend enters
// a container frame's children. Frame headers, the headers of containers
// and in-place decodes are all read by the decoder's walker.
type Scanner struct {
	src sliceSource // the whole buffer; src.off is the next frame's offset
	end int
	err error

	// scopes holds the namespace declaration tables of the ancestor
	// element frames, outermost first, so a frame decoded in place can
	// resolve tokenized references into its ancestors' tables.
	scopes [][]bxdm.NamespaceDecl

	// Current frame, valid after Next returns true.
	frameType  FrameType
	order      xbs.ByteOrder
	frameStart int
	bodyStart  int
	bodyEnd    int
}

// NewScanner scans the top-level frames of a BXSA byte stream.
func NewScanner(data []byte) *Scanner {
	return &Scanner{src: sliceSource{data: data}, end: len(data)}
}

// Next advances to the next frame at this level, returning false at the end
// of the level or on error (check Err).
func (s *Scanner) Next() bool {
	if s.err != nil || s.src.off >= s.end {
		return false
	}
	start := s.src.off
	w := walker{src: &s.src}
	order, ft, end, err := w.header(s.end)
	if err != nil {
		s.err = fmt.Errorf("bxsa: bad frame at %d: %w", start, err)
		return false
	}
	s.frameType, s.order = ft, order
	s.frameStart, s.bodyStart, s.bodyEnd = start, s.src.off, end
	s.src.off = end // next frame starts right after this one
	return true
}

// Err returns the first scan error, if any.
func (s *Scanner) Err() error { return s.err }

// Type returns the current frame's type.
func (s *Scanner) Type() FrameType { return s.frameType }

// Order returns the current frame's byte order.
func (s *Scanner) Order() xbs.ByteOrder { return s.order }

// Body returns the current frame's body bytes (shared, do not modify).
func (s *Scanner) Body() []byte { return s.src.data[s.bodyStart:s.bodyEnd] }

// FrameSize returns the current frame's total size including prefix and
// size field.
func (s *Scanner) FrameSize() int {
	body := s.bodyEnd - s.bodyStart
	return 1 + vls.EncodedLen(uint64(body)) + body
}

// Descend returns a Scanner over the current frame's child frames. Only
// document and component-element frames contain child frames; for a
// document the header is the child count, for an element it is the common
// section plus the child count. Descend reads that header without touching
// the child frames' contents.
func (s *Scanner) Descend() (*Scanner, error) {
	if s.frameType != FrameDocument && s.frameType != FrameElement {
		return nil, fmt.Errorf("bxsa: cannot descend into %v frame", s.frameType)
	}
	d := sliceDecoder(s.src.data[:s.bodyEnd], s.bodyStart, s.scopes)
	scopes := s.scopes
	var err error
	if s.frameType == FrameElement {
		var c bxdm.ElemCommon
		c, err = d.common(s.order, s.bodyEnd)
		// Only a non-empty table can be the target of a tokenized
		// reference (bxdm.NSScope skips the rest), so only those are kept.
		if err == nil && len(c.NamespaceDecls) > 0 {
			scopes = append(scopes[:len(scopes):len(scopes)], c.NamespaceDecls)
		}
	}
	if err == nil {
		_, err = d.childCount(s.bodyEnd)
	}
	off := d.slice.off
	if err := d.release(err); err != nil {
		return nil, err
	}
	return &Scanner{src: sliceSource{data: s.src.data, off: off}, end: s.bodyEnd, scopes: scopes}, nil
}

// CountFrames scans all frames at the top level (without parsing contents)
// and returns how many there are. It is the cheapest possible integrity walk
// over a BXSA stream.
func CountFrames(data []byte) (int, error) {
	sc := NewScanner(data)
	n := 0
	for sc.Next() {
		n++
	}
	return n, sc.Err()
}

// Decode fully parses just the current frame, in place: sibling frames are
// never touched, ancestor namespace tables gathered during Descend resolve
// the frame's tokenized references, and array payloads keep their
// document-absolute alignment because decoding happens at the frame's true
// offset. Combined with Next/Descend this is the paper's "accelerated
// sequential access": scan by Size, decode only what you need.
func (s *Scanner) Decode() (bxdm.Node, error) {
	if s.frameStart >= s.bodyEnd {
		return nil, fmt.Errorf("bxsa: Decode before Next")
	}
	return sliceDecoder(s.src.data[:s.bodyEnd], s.frameStart, s.scopes).decode(s.bodyEnd)
}
