package core

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"migratorydata/internal/bufpool"
)

// writeLog is a Framed that records every WriteBatch — a copy of the
// bytes and the address of the slice it was handed — and reads nothing
// until closed.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte
	addrs  []*byte
	done   chan struct{}
	once   sync.Once
}

func newWriteLog() *writeLog { return &writeLog{done: make(chan struct{})} }

func (w *writeLog) ReadChunk() ([]byte, error) {
	<-w.done
	return nil, io.EOF
}

func (w *writeLog) WriteBatch(b []byte) error {
	w.mu.Lock()
	w.writes = append(w.writes, bytes.Clone(b))
	w.addrs = append(w.addrs, unsafe.SliceData(b))
	w.mu.Unlock()
	return nil
}

func (w *writeLog) Close() error {
	w.once.Do(func() { close(w.done) })
	return nil
}

func (w *writeLog) RemoteAddr() string { return "writelog" }

func (w *writeLog) snapshot() (writes [][]byte, addrs []*byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.writes...), append([]*byte(nil), w.addrs...)
}

// attachWriteLog attaches a writeLog-backed client to e.
func attachWriteLog(t *testing.T, e *Engine) (*Client, *writeLog) {
	t.Helper()
	w := newWriteLog()
	c, err := e.Attach(w)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return c, w
}

// holdDrain parks c's IoThread inside one event until the returned
// release runs, so everything queued meanwhile is handled in one drain.
func holdDrain(t *testing.T, c *Client) (release func()) {
	t.Helper()
	parked, gate := make(chan struct{}), make(chan struct{})
	if !c.io.in.Push(ioEvent{kind: evFunc, fn: func() {
		close(parked)
		<-gate
	}}) {
		t.Fatal("ioThread already shut down")
	}
	<-parked
	return func() { close(gate) }
}

// afterDrain waits until the drain holding everything queued so far has
// ended and flushed its corks. A probe lands either in that drain — then
// a second probe runs in a later one — or in a later drain already.
func afterDrain(t *testing.T, c *Client) {
	t.Helper()
	for range 2 {
		if !c.io.do(func() {}) {
			t.Fatal("ioThread already shut down")
		}
	}
}

// frameOf returns a distinguishable n-byte frame.
func frameOf(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }

// TestCorkCoalescesDrainIntoOneWrite: small frames staged to one client
// in one queue drain leave in a single transport write carrying all of
// them, byte-exact and in staging order.
func TestCorkCoalescesDrainIntoOneWrite(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1})
	c, w := attachWriteLog(t, e)

	before := e.Stats()
	release := holdDrain(t, c)
	var want []byte
	for i := range 20 {
		f := frameOf(byte('a'+i), 10+i)
		want = append(want, f...)
		c.SendFrame(f)
	}
	release()
	afterDrain(t, c)

	writes, _ := w.snapshot()
	if len(writes) != 1 || !bytes.Equal(writes[0], want) {
		t.Fatalf("got %d writes %q, want one write %q", len(writes), writes, want)
	}
	st := e.Stats()
	if n := st.IOFlushes - before.IOFlushes; n != 1 {
		t.Errorf("IOFlushes grew by %d, want 1", n)
	}
	if n := st.IOFlushBytes - before.IOFlushBytes; n != int64(len(want)) {
		t.Errorf("IOFlushBytes grew by %d, want %d", n, len(want))
	}
	if st.EgressQueueBytes != 0 {
		t.Errorf("EgressQueueBytes = %d after the flush, want 0", st.EgressQueueBytes)
	}
}

// TestCorkLargeFrameKeepsOrderUncopied: a frame larger than the pooled
// buffer class, staged between small ones, writes the cork out first and
// then goes to the transport as is (the very slice staged, not a copy);
// the small frames after it cork again. Small frames that together
// overflow the class split into class-sized writes in order.
func TestCorkLargeFrameKeepsOrderUncopied(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1})
	c, w := attachWriteLog(t, e)

	s1, s2, s3 := frameOf('1', 100), frameOf('2', 200), frameOf('3', 300)
	big := frameOf('B', bufpool.ClassSize+1000)
	release := holdDrain(t, c)
	for _, f := range [][]byte{s1, s2, big, s3} {
		c.SendFrame(f)
	}
	release()
	afterDrain(t, c)

	writes, addrs := w.snapshot()
	want := [][]byte{append(bytes.Clone(s1), s2...), big, s3}
	if len(writes) != len(want) {
		t.Fatalf("got %d writes, want %d", len(writes), len(want))
	}
	for i := range want {
		if !bytes.Equal(writes[i], want[i]) {
			t.Errorf("write %d = %d bytes starting %q, want %d bytes starting %q",
				i, len(writes[i]), writes[i][:1], len(want[i]), want[i][:1])
		}
	}
	if addrs[1] != unsafe.SliceData(big) {
		t.Error("the oversized frame was copied on its way to the transport")
	}

	// 100 frames of 200 B: 40 fit one 8 KiB class buffer, so the drain
	// writes 8000 + 8000 + 4000 bytes.
	release = holdDrain(t, c)
	var all []byte
	for i := range 100 {
		f := frameOf(byte(i), 200)
		all = append(all, f...)
		c.SendFrame(f)
	}
	release()
	afterDrain(t, c)
	writes, _ = w.snapshot()
	writes = writes[len(want):]
	if len(writes) != 3 {
		t.Fatalf("got %d writes for 20000 corked bytes, want 3", len(writes))
	}
	var got []byte
	for _, b := range writes {
		if len(b) > bufpool.ClassSize {
			t.Errorf("a corked write carried %d bytes, more than the %d-byte class", len(b), bufpool.ClassSize)
		}
		got = append(got, b...)
	}
	if !bytes.Equal(got, all) {
		t.Error("class-sized cork writes lost or reordered bytes")
	}
	if st := e.Stats(); st.EgressQueueBytes != 0 {
		t.Errorf("EgressQueueBytes = %d after the flushes, want 0", st.EgressQueueBytes)
	}
}

// TestCorkFrameCapFlushesMidDrain: a drain that stages more than
// maxCorkFrames frames writes its corks every maxCorkFrames frames, in
// order, so the cork lists stay bounded however deep the queue.
func TestCorkFrameCapFlushesMidDrain(t *testing.T) {
	// The event budget must keep this many queued frames in the healthy
	// tier; pressure tiers bypass the cork.
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1, EgressBudgetEvents: 4 * maxCorkFrames})
	c, w := attachWriteLog(t, e)

	const n = maxCorkFrames + 10 // 1-byte frames: only the frame cap splits them
	release := holdDrain(t, c)
	var want []byte
	for i := range n {
		f := []byte{byte(i)}
		want = append(want, f...)
		c.SendFrame(f)
	}
	release()
	afterDrain(t, c)

	writes, _ := w.snapshot()
	if len(writes) != 2 || len(writes[0]) != maxCorkFrames {
		t.Fatalf("got %d writes, want 2 with the first carrying %d frames", len(writes), maxCorkFrames)
	}
	if !bytes.Equal(append(writes[0], writes[1]...), want) {
		t.Error("frame-capped cork writes lost or reordered bytes")
	}
}

// TestCorkTeardownReleasesLedger: a client torn down with frames still
// corked writes nothing, and its egress charge returns to zero.
func TestCorkTeardownReleasesLedger(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1})
	c, w := attachWriteLog(t, e)

	release := holdDrain(t, c)
	for i := range 5 {
		c.SendFrame(frameOf(byte('a'+i), 64))
	}
	c.CloseAsync()
	release()
	afterDrain(t, c)

	if writes, _ := w.snapshot(); len(writes) != 0 {
		t.Fatalf("torn-down client got %d writes", len(writes))
	}
	if st := e.Stats(); st.EgressQueueBytes != 0 {
		t.Errorf("EgressQueueBytes = %d after teardown, want 0", st.EgressQueueBytes)
	}
	if ev := c.egress.events.Load(); ev != 0 {
		t.Errorf("egress events = %d after teardown, want 0", ev)
	}
}

// TestCorkFlushesBeforePressurePath: once a client leaves the healthy
// tier mid-drain, its next frame takes the per-frame path — and the frames
// corked before it reach the wire first.
func TestCorkFlushesBeforePressurePath(t *testing.T) {
	var tier atomic.Uint32
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1, Pressure: PressurePolicy{
		Tier: func(_, _, _, _ int64) PressureTier { return PressureTier(tier.Load()) },
	}})
	c, w := attachWriteLog(t, e)

	f1, f2, f3 := frameOf('1', 10), frameOf('2', 20), frameOf('3', 30)
	release := holdDrain(t, c)
	c.SendFrame(f1)
	c.SendFrame(f2)
	c.io.in.Push(ioEvent{kind: evFunc, fn: func() {
		tier.Store(uint32(TierConflate))
		c.egress.tier.Store(uint32(TierConflate))
	}})
	c.SendFrame(f3)
	release()
	afterDrain(t, c)

	writes, _ := w.snapshot()
	want := [][]byte{append(bytes.Clone(f1), f2...), f3}
	if len(writes) != len(want) {
		t.Fatalf("got %d writes %q, want %q", len(writes), writes, want)
	}
	for i := range want {
		if !bytes.Equal(writes[i], want[i]) {
			t.Fatalf("write %d = %q, want %q (corked frames must precede the pressure path)", i, writes[i], want[i])
		}
	}
}
