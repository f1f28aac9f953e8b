package main

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"migratorydata/internal/capture"
	"migratorydata/internal/protocol"
)

// spanStore holds the client-side per-message timestamps of a traced
// session on the benchmark clock, in arrays preallocated for every message
// index; 0 means "not seen". The publisher and the subscriber each write
// their own arrays; they are read once every writer has stopped.
type spanStore struct {
	due, writeStart, writeEnd, decode, ackDecode []int64
	// Engine side, taken from the sink once it is aligned:
	// RecordIn(PUBLISH), RecordOut(PUBACK) and the first live
	// RecordOut(NOTIFY).
	in, ackOut, notifyOut []int64
}

func newSpanStore(n int) *spanStore {
	a := func() []int64 { return make([]int64, n) }
	return &spanStore{due: a(), writeStart: a(), writeEnd: a(), decode: a(), ackDecode: a()}
}

// subscribeEvent is one SUBSCRIBE the server received, and when it first
// staged a retransmission on that connection.
type subscribeEvent struct {
	conn       uint64
	in, replay int64
}

// traceSink is the io.Writer behind the server's capture.Recorder. It
// decodes the capture stream as the recorder hands it over and keeps only
// the timestamps the benchmark needs, in arrays indexed by message, so the
// tap costs a parse, not a copy of every frame.
type traceSink struct {
	n      int   // messages the arrays hold
	base   int64 // benchmark-clock time of the recorder's time origin
	width  int64 // the clock bracket around NewRecorder
	ts     int64 // event time relative to base
	header int   // capture-header bytes still to skip
	carry  []byte
	err    error

	in, ackOut, notifyOut []int64 // allocated on first use
	subs                  []subscribeEvent
}

func newTraceSink(n int) *traceSink {
	return &traceSink{n: n, header: len("MDCAP") + 1}
}

// anchor places the recorder's time origin on the benchmark clock: it was
// read between before and after.
func (k *traceSink) anchor(before, after int64) {
	k.base, k.width = before, after-before
}

// Write implements io.Writer for the recorder's writer goroutine.
func (k *traceSink) Write(b []byte) (int, error) {
	n := len(b)
	if k.header > 0 {
		skip := min(k.header, len(b))
		k.header -= skip
		b = b[skip:]
	}
	if len(k.carry) > 0 {
		k.carry = append(k.carry, b...)
		b = k.carry
	}
	for len(b) >= 4 {
		size := int(binary.BigEndian.Uint32(b))
		if len(b) < 4+size {
			break
		}
		k.event(b[4 : 4+size])
		b = b[4+size:]
	}
	k.carry = append(k.carry[:0], b...)
	return n, nil
}

// event files one capture event: [uvarint delta][uvarint conn][dir][frames].
func (k *traceSink) event(body []byte) {
	delta, n1 := binary.Uvarint(body)
	conn, n2 := binary.Uvarint(body[max(n1, 0):])
	if n1 <= 0 || n2 <= 0 || len(body) < n1+n2+1 {
		k.err = errBadEvent
		return
	}
	k.ts += int64(delta)
	at := k.base + k.ts
	dir := capture.Direction(body[n1+n2])
	frames := body[n1+n2+1:]
	for len(frames) >= 4 {
		size := 4 + int(binary.BigEndian.Uint32(frames))
		if size > len(frames) {
			k.err = errBadEvent
			return
		}
		k.frame(dir, conn, at, frames[:size])
		frames = frames[size:]
	}
}

// frame files one protocol frame of an event.
func (k *traceSink) frame(dir capture.Direction, conn uint64, at int64, f []byte) {
	kind, flags, id, ok := frameHeader(f)
	if !ok {
		k.err = errBadEvent
		return
	}
	if kind == protocol.KindSubscribe && dir == capture.DirIn {
		k.subs = append(k.subs, subscribeEvent{conn: conn, in: at})
		return
	}
	idx, _, _, ok := parseID(id)
	if !ok || idx >= uint64(k.n) {
		return
	}
	switch {
	case kind == protocol.KindPublish && dir == capture.DirIn:
		setOnce(&k.in, k.n, idx, at)
	case kind == protocol.KindPubAck && dir == capture.DirOut:
		setOnce(&k.ackOut, k.n, idx, at)
	case kind == protocol.KindNotify && dir == capture.DirOut && flags&protocol.FlagRetransmission != 0:
		for i := len(k.subs) - 1; i >= 0; i-- {
			if e := &k.subs[i]; e.conn == conn {
				if e.replay == 0 {
					e.replay = at
				}
				break
			}
		}
	case kind == protocol.KindNotify && dir == capture.DirOut:
		setOnce(&k.notifyOut, k.n, idx, at)
	}
}

// setOnce records the first timestamp of message idx, allocating the
// array on first use.
func setOnce(a *[]int64, n int, idx uint64, at int64) {
	if *a == nil {
		*a = make([]int64, n)
	}
	if (*a)[idx] == 0 {
		(*a)[idx] = at
	}
}

// alignBin is the resolution at which a sink's clock offset is estimated.
const alignBin = 250_000 // ns

// align corrects the sink's timestamps for the recorder's clock. The
// recorder stamps each event with the time since the previous one and
// clamps a negative difference to zero, so when two threads stamp and then
// append out of order, every later event reads late by the difference:
// the offset D between a recorded time S and the true time only grows. The
// clients bound every true time: a PUBLISH is read after its write
// started, and a NOTIFY or PUBACK is staged before the client decodes it.
// Each event therefore bounds D at its S from both sides; since D never
// decreases, the running maximum of the lower bounds and the running
// minimum (from the end) of the upper bounds bracket it everywhere.
// Timestamps move to the middle of that bracket, and the bracket widths
// are returned (nanoseconds, one per corrected message event): half a
// width is the error of a corrected time.
func (k *traceSink) align(sp *spanStore, n uint64) sample {
	nb := int((k.ts+alignBin)/alignBin) + 1
	lower := make([]int64, nb) // per bin: largest lower bound on D
	upper := make([]int64, nb) // per bin: smallest upper bound on D
	for i := range lower {
		lower[i], upper[i] = math.MinInt64, math.MaxInt64
	}
	// bound files what one event says about D; a zero time bounds nothing.
	bound := func(s, earliest, latest int64) {
		if s == 0 {
			return
		}
		b := min(max(int((s-k.base)/alignBin), 0), nb-1)
		if latest != 0 {
			lower[b] = max(lower[b], s-latest)
		}
		if earliest != 0 {
			upper[b] = min(upper[b], s-earliest)
		}
	}
	firstOf := func(a, b int64) int64 {
		if a == 0 || (b != 0 && b < a) {
			return b
		}
		return a
	}
	for i := range n {
		ws := sp.writeStart[i]
		if k.in != nil {
			bound(k.in[i], ws, firstOf(sp.ackDecode[i], sp.decode[i]))
		}
		if k.ackOut != nil {
			bound(k.ackOut[i], ws, sp.ackDecode[i])
		}
		if k.notifyOut != nil {
			bound(k.notifyOut[i], ws, sp.decode[i])
		}
	}
	for b := 1; b < nb; b++ {
		lower[b] = max(lower[b], lower[b-1])
	}
	for b := nb - 2; b >= 0; b-- {
		upper[b] = min(upper[b], upper[b+1])
	}
	var widths sample
	correct := func(s int64) int64 {
		if s == 0 {
			return 0
		}
		b := min(max(int((s-k.base)/alignBin), 0), nb-1)
		l, u := lower[b], upper[b]
		switch {
		case l == math.MinInt64 && u == math.MaxInt64:
			return s
		case l == math.MinInt64:
			l = u
		case u == math.MaxInt64:
			u = l
		}
		widths = append(widths, u-l)
		return s - (l+u)/2
	}
	for _, a := range [][]int64{k.in, k.ackOut, k.notifyOut} {
		for i := range a {
			a[i] = correct(a[i])
		}
	}
	for i := range k.subs {
		k.subs[i].in = correct(k.subs[i].in)
		k.subs[i].replay = correct(k.subs[i].replay)
	}
	return widths
}

var errBadEvent = errors.New("trace sink: malformed capture event")

// frameHeader reads a frame's kind, flags and message ID in place:
// [u32 len][kind][flags][status][str client][str topic][str id]...
func frameHeader(f []byte) (kind protocol.Kind, flags uint8, id []byte, ok bool) {
	if len(f) < 7 {
		return 0, 0, nil, false
	}
	kind, flags = protocol.Kind(f[4]), f[5]
	rest := f[7:]
	for field := 0; field < 3; field++ {
		n, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < n {
			return 0, 0, nil, false
		}
		id, rest = rest[w:w+int(n)], rest[w+int(n):]
	}
	return kind, flags, id, true
}

// stages are the consecutive spans of one message's deliver latency; the
// boundaries are shared, so they sum exactly to decode − due.
type stages struct {
	late, write, ingress, core, egress int64
}

func (s stages) sum() int64 { return s.late + s.write + s.ingress + s.core + s.egress }

// deliverStages returns the stages of message i, if every boundary of it
// was seen.
func (s *spanStore) deliverStages(i uint64) (stages, int64, bool) {
	due, ws, we, in, out, dec := s.due[i], s.writeStart[i], s.writeEnd[i], s.in[i], s.notifyOut[i], s.decode[i]
	if due == 0 || ws == 0 || we == 0 || in == 0 || out == 0 || dec == 0 {
		return stages{}, 0, false
	}
	return stages{late: ws - due, write: we - ws, ingress: in - we, core: out - in, egress: dec - out}, dec - due, true
}

// sample collects values for exact percentiles; traced sessions keep every
// span, so no histogram rounding applies (and spans may be negative: the
// engine can read a frame before the writer's syscall returns).
type sample []int64

// pctMs returns the nearest-rank q-quantile in milliseconds.
func (s sample) pctMs(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	r := int(q*float64(len(c))+0.999999999) - 1
	return float64(c[min(max(r, 0), len(c)-1)]) / 1e6
}
