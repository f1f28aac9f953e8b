package protocol

import (
	"encoding/binary"
	"fmt"
)

// StreamDecoder incrementally decodes frames from a byte stream. It embodies
// the paper's observation about the I/O layer (§4): the read buffer of a
// client "may contain a partial message" and is appended to lock-free by the
// single IoThread owning that client. Feed bytes as they arrive; Next pops
// complete messages.
//
// StreamDecoder is NOT safe for concurrent use — by design, exactly one
// IoThread touches a given client's decoder.
type StreamDecoder struct {
	// buf[off:] holds the buffered, not-yet-decoded bytes. Next only
	// advances off; Feed moves the remainder to the front only when it
	// needs the room, so a burst of n frames costs O(n) bytes moved, not
	// O(n²).
	buf []byte
	off int

	// PoolPayloads makes Next decode message payloads into pool-backed
	// buffers (see DecodeBodyPooled). The decoder's owner then owns every
	// returned payload and must ReleasePayload (or UnpoolPayload) each one.
	PoolPayloads bool

	// PoolMessages makes Next draw the Message structs themselves from the
	// message pool. The decoder's owner then owns every returned message
	// and must ReleaseMessage each one once it (and everything it
	// references) is done — with both flags set the steady-state decode
	// path allocates only the immutable strings a message carries.
	PoolMessages bool
}

// Feed appends newly-received bytes to the pending buffer.
func (s *StreamDecoder) Feed(data []byte) {
	if s.off > 0 && len(s.buf)+len(data) > cap(s.buf) {
		n := copy(s.buf, s.buf[s.off:])
		s.buf = s.buf[:n]
		s.off = 0
	}
	s.buf = append(s.buf, data...)
}

// Next decodes and removes the next complete frame, if any.
// It returns (nil, nil) when more bytes are needed.
//
//vet:hotpath
func (s *StreamDecoder) Next() (*Message, error) {
	pending := s.buf[s.off:]
	if len(pending) < headerSize {
		return nil, nil
	}
	bodyLen := binary.BigEndian.Uint32(pending)
	if bodyLen > MaxFrameSize {
		//vet:ignore hotpath -- the error tears the connection down; it never recurs on a live stream
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, bodyLen)
	}
	total := headerSize + int(bodyLen)
	if len(pending) < total {
		return nil, nil
	}
	m, err := decodeBody(pending[headerSize:total], s.PoolPayloads, s.PoolMessages)
	if err != nil {
		return nil, err
	}
	s.off += total
	if s.off == len(s.buf) {
		s.Reset()
	}
	return m, nil
}

// Pending reports the number of buffered, not-yet-decoded bytes.
func (s *StreamDecoder) Pending() int { return len(s.buf) - s.off }

// Reset discards all buffered bytes.
func (s *StreamDecoder) Reset() {
	s.buf = s.buf[:0]
	s.off = 0
}
