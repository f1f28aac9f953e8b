package capture

import (
	"io"
	"sync"
	"time"

	"migratorydata/internal/protocol"
)

const (
	// flushBytes is the staging-buffer size that triggers a hand-off to the
	// writer goroutine.
	flushBytes = 64 << 10
	// flushAge bounds how long a partially-filled staging buffer may sit
	// before it is handed off anyway, so a quiet capture still reaches disk
	// promptly.
	flushAge = 250 * time.Millisecond
	// handoffDepth is the writer-goroutine queue depth. A recorder that
	// outruns the sink this far blocks the recording thread rather than
	// dropping events: capture integrity beats tap latency.
	handoffDepth = 8
)

// Recorder taps a live engine and writes a capture with buffered
// write-behind: events append to an in-memory staging buffer under a
// mutex, and full buffers are handed to a dedicated writer goroutine —
// the sink write never happens on an IoThread, the same discipline as the
// ingest path's encode-outside-the-lock rule. A nil *Recorder is inert:
// the engine guards every tap with a single nil check, so a server
// started without -record pays one predictable branch per frame.
type Recorder struct {
	mu      sync.Mutex
	buf     []byte // staging buffer, swapped out whole on hand-off
	scratch []byte // RecordIn frame-encode scratch, reused across events
	base    time.Time
	lastNs  int64 // monotonic nanos of the newest event so far
	flushNs int64 // monotonic nanos of the previous hand-off
	closed  bool

	out  chan []byte
	free chan []byte
	done chan struct{}

	errMu sync.Mutex
	werr  error // first sink-write error, sticky
}

// NewRecorder writes the capture header to w synchronously (a bad sink
// fails at startup, not mid-capture) and starts the writer goroutine.
// The caller must Close the recorder before closing w.
func NewRecorder(w io.Writer) (*Recorder, error) {
	if _, err := w.Write(magic[:]); err != nil {
		return nil, err
	}
	r := &Recorder{
		buf:  make([]byte, 0, flushBytes+4096),
		base: time.Now(),
		out:  make(chan []byte, handoffDepth),
		free: make(chan []byte, handoffDepth),
		done: make(chan struct{}),
	}
	go r.writeLoop(w)
	return r, nil
}

// RecordOpen records a connection being attached.
func (r *Recorder) RecordOpen(conn uint64) { r.record(conn, DirOpen, nil) }

// RecordClose records a connection's teardown.
func (r *Recorder) RecordClose(conn uint64) { r.record(conn, DirClose, nil) }

// RecordOut records a frame staged toward a client. The frame bytes are
// copied before return; the caller keeps ownership.
//
//vet:hotpath
func (r *Recorder) RecordOut(conn uint64, frame []byte) { r.record(conn, DirOut, frame) }

// RecordIn records a decoded inbound message. The frame is re-encoded
// with the canonical codec (protocol.AppendEncode) into a scratch buffer
// reused across events, so recorded IN frames are byte-identical across a
// record → replay → re-record cycle regardless of how the client encoded
// them.
//
//vet:hotpath
func (r *Recorder) RecordIn(conn uint64, m *protocol.Message) {
	nowNs := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.scratch = protocol.AppendEncode(r.scratch[:0], m)
	r.appendLocked(nowNs, conn, DirIn, r.scratch)
	r.mu.Unlock()
}

// record captures one event with the current monotonic timestamp.
//
//vet:hotpath
func (r *Recorder) record(conn uint64, dir Direction, frame []byte) {
	nowNs := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.appendLocked(nowNs, conn, dir, frame)
	r.mu.Unlock()
}

// appendLocked appends one event to the staging buffer and hands the
// buffer to the writer goroutine when it is full or stale. Called with
// r.mu held; the hand-off send stays under the lock, which is safe
// because the writer goroutine never takes r.mu, and keeps the
// closed-check/send pair atomic with respect to Close.
//
//vet:hotpath
func (r *Recorder) appendLocked(nowNs int64, conn uint64, dir Direction, frame []byte) {
	// Threads stamp before taking r.mu, so stamps may arrive out of order.
	// An older stamp is recorded at the newest one seen (delta 0) and must
	// not rewind lastNs: the next delta would then count the same interval
	// twice, and the replayed clock would run ahead by a growing offset.
	delta := nowNs - r.lastNs
	if delta < 0 {
		delta = 0
	} else {
		r.lastNs = nowNs
	}
	r.buf = appendEvent(r.buf, uint64(delta), conn, dir, frame)
	if len(r.buf) < flushBytes && nowNs-r.flushNs < int64(flushAge) {
		return
	}
	full := r.buf
	select {
	case b := <-r.free:
		r.buf = b
	default:
		r.buf = make([]byte, 0, flushBytes+4096)
	}
	r.flushNs = nowNs
	r.out <- full
}

// writeLoop drains staged buffers to the sink off the recording threads.
func (r *Recorder) writeLoop(w io.Writer) {
	defer close(r.done)
	for b := range r.out {
		n, err := w.Write(b)
		if err == nil && n < len(b) {
			// A sink that short-writes with a nil error (violating the
			// io.Writer contract) still truncated the capture.
			err = io.ErrShortWrite
		}
		if err != nil {
			r.errMu.Lock()
			if r.werr == nil {
				r.werr = err
			}
			r.errMu.Unlock()
		}
		select {
		case r.free <- b[:0]:
		default:
		}
	}
}

// Err returns the first sink-write error, if any.
func (r *Recorder) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.werr
}

// Close flushes the staging buffer, stops the writer goroutine, and
// returns the first sink-write error. Idempotent. Taps racing with Close
// are dropped cleanly (the closed flag is checked under the same lock the
// hand-off uses).
func (r *Recorder) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		// A concurrent first Close may still be waiting on the writer
		// goroutine: wait too, so no caller observes a nil error while a
		// deferred sink failure is about to surface.
		<-r.done
		return r.Err()
	}
	r.closed = true
	tail := r.buf
	r.buf = nil
	if len(tail) > 0 {
		r.out <- tail
	}
	close(r.out)
	r.mu.Unlock()
	<-r.done
	return r.Err()
}
