package capture

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"migratorydata/internal/faultfs"
)

// TestRecorderCloseSurfacesDeferredSinkError: the writer goroutine hits
// the sink error after the recording threads have moved on; Close must
// still return it — on the first call AND on any later call (the
// already-closed path used to read the sticky error without waiting for
// the writer goroutine to finish, returning nil for an error that was
// milliseconds from surfacing).
func TestRecorderCloseSurfacesDeferredSinkError(t *testing.T) {
	var sink bytes.Buffer
	w := faultfs.NewWriter(&sink)
	r, err := NewRecorder(w)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	// Write #1 was the header; every later (staged) write fails slowly, so
	// a second Close that does not wait would observe no error yet.
	sentinel := errors.New("disk full")
	w.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 0, Err: sentinel,
		Delay: 100 * time.Millisecond, Sticky: true})
	r.RecordOpen(1)
	r.RecordOut(1, []byte("frame"))

	firstErr := make(chan error, 1)
	go func() { firstErr <- r.Close() }()
	time.Sleep(20 * time.Millisecond) // first Close is now blocked in the sink write
	if err := r.Close(); !errors.Is(err, sentinel) {
		t.Fatalf("second Close = %v, want the deferred sink error", err)
	}
	if err := <-firstErr; !errors.Is(err, sentinel) {
		t.Fatalf("first Close = %v, want the deferred sink error", err)
	}
	if err := r.Err(); !errors.Is(err, sentinel) {
		t.Fatalf("Err() = %v", err)
	}
}

// TestRecorderDetectsShortWriteWithNilError: a sink that truncates a write
// but reports success (violating the io.Writer contract) must still fail
// the capture — the file on disk is torn either way.
func TestRecorderDetectsShortWriteWithNilError(t *testing.T) {
	var sink bytes.Buffer
	w := faultfs.NewWriter(&sink)
	r, err := NewRecorder(w)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	w.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 0, Short: 3,
		ShortNilError: true, Sticky: true})
	r.RecordOpen(1)
	r.RecordOut(1, []byte("payload that will be truncated"))
	if err := r.Close(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Close = %v, want io.ErrShortWrite", err)
	}
}

// TestRecorderCloseCleanSinkStillNil: the error paths above must not make
// a clean capture start reporting phantom failures.
func TestRecorderCloseCleanSinkStillNil(t *testing.T) {
	var sink bytes.Buffer
	r, err := NewRecorder(faultfs.NewWriter(&sink))
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	r.RecordOpen(1)
	r.RecordClose(1)
	if err := r.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestRecorderClockOutOfOrderStamps: threads stamp an event before taking
// the recorder's lock, so stamps can reach it out of order. Replaying the
// capture must never put an event ahead of the newest real stamp so far,
// and the error must not accumulate: the last event replays at the
// newest stamp exactly.
func TestRecorderClockOutOfOrderStamps(t *testing.T) {
	var sink bytes.Buffer
	r, err := NewRecorder(&sink)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	// Pairs of threads racing: each pair's second stamp is older by up
	// to 4 µs than its first.
	var stamps []int64
	for i := int64(1); i <= 1000; i++ {
		stamps = append(stamps, i*10_000, i*10_000-(i%5)*1_000)
	}
	r.mu.Lock()
	for _, s := range stamps {
		r.appendLocked(s, 1, DirOut, []byte("f"))
	}
	r.mu.Unlock()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events, err := ReadAll(&sink)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(events) != len(stamps) {
		t.Fatalf("replayed %d events, recorded %d", len(events), len(stamps))
	}
	var at, newest int64
	for i, ev := range events {
		at += int64(ev.Delta)
		newest = max(newest, stamps[i])
		if at != newest {
			t.Fatalf("event %d replays at %d ns, newest real stamp is %d ns (off by %d)",
				i, at, newest, at-newest)
		}
	}
}
