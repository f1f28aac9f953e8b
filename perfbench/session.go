package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"migratorydata/internal/capture"
	"migratorydata/internal/protocol"
	"migratorydata/server"
)

// Phases tag every message (inside its ID), so each receiver files a
// delivery under the phase it was sent in without shared state. The steady
// window is cut into one-second phases, so tail figures can be taken per
// second.
const (
	phaseWarm   = 0
	phaseResume = 1
	phaseSteady = 2 // second k of the steady window is phaseSteady+k
	maxSeconds  = 60
	maxPhases   = phaseSteady + maxSeconds
)

func steadyPhase(phase int) bool { return phase >= phaseSteady }

// phaseHists is one latency histogram per phase, allocated on first use.
type phaseHists [maxPhases]*Hist

func (h *phaseHists) record(phase int, v int64) {
	if h[phase] == nil {
		h[phase] = new(Hist)
	}
	h[phase].Record(v)
}

// merged returns the phases [from, to) merged into one histogram.
func (h *phaseHists) merged(from, to int) *Hist {
	m := new(Hist)
	for _, p := range h[from:to] {
		if p != nil {
			m.Merge(p)
		}
	}
	return m
}

// medianQuantileMs returns the median over phases [from, to) of each
// phase's q-quantile, in milliseconds: a tail figure that one stall in one
// phase does not decide.
func (h *phaseHists) medianQuantileMs(q float64, from, to int) float64 {
	var per []float64
	for _, p := range h[from:to] {
		if p != nil && p.Count() > 0 {
			per = append(per, p.QuantileMs(q))
		}
	}
	if len(per) == 0 {
		return 0
	}
	return median(per)
}

// maxWrite bounds one generator write; publishes that come due together
// beyond it go out in the next write.
const maxWrite = 256 << 10

// deployment is the server side of a session: one node behind a TCP
// loopback listener, optionally tapped by a recorder.
type deployment struct {
	srv  *server.Server
	rec  *capture.Recorder
	sink *traceSink
}

// deploy starts the server; with traced > 0 it gets a recorder whose sink
// holds that many messages.
func deploy(w workload, traced int) (*deployment, error) {
	d := &deployment{}
	cfg := server.Config{ListenAddr: "127.0.0.1:0", Mode: w.mode}
	if traced > 0 {
		d.sink = newTraceSink(traced)
		before := now()
		rec, err := capture.NewRecorder(d.sink)
		d.sink.anchor(before, now())
		if err != nil {
			return nil, fmt.Errorf("recorder: %w", err)
		}
		cfg.Recorder, d.rec = rec, rec
	}
	s, err := server.Open(cfg)
	if err == nil {
		d.srv = s
		err = s.Start()
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the server, then the recorder, so every tap has landed in
// its sink when close returns.
func (d *deployment) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	if d.rec != nil {
		d.rec.Close()
	}
}

// publisher owns the publishing connection: the open-loop schedule loop
// writes on it, and one reader goroutine decodes the PUBACKs.
type publisher struct {
	ref    *reference
	w      *wire
	dec    protocol.StreamDecoder
	sched  *poisson
	retry  *retries
	next   uint64 // index of the next message
	limit  uint64 // capacity of the per-message state
	spans  *spanStore
	closed atomic.Bool
	done   chan struct{}

	// Generator state and steady-window statistics, owned by the schedule
	// loop.
	buf                               []byte
	idBuf                             []byte
	batch                             []protocol.Message
	late                              Hist
	writes, frames, writeNs, encodeNs int64

	sent     [maxPhases]int64 // written and read by the schedule loop's goroutine
	ackedMax []atomic.Int64   // per topic: highest acknowledged index + 1

	mu      sync.Mutex // guards the fields below; the reader holds it per read
	or      *pubOracle
	ackHist phaseHists // steady window
	readErr error
}

func newPublisher(ref *reference, w *wire, seed uint64, limit int, spans *spanStore) *publisher {
	p := &publisher{
		ref: ref, sched: newPoisson(seed), retry: &retries{}, limit: uint64(limit), spans: spans,
		ackedMax: make([]atomic.Int64, len(ref.topics)),
		or:       newPubOracle(limit),
	}
	p.start(w)
	return p
}

// start makes w the publishing connection and starts its reader.
func (p *publisher) start(w *wire) {
	p.w = w
	p.dec = protocol.StreamDecoder{PoolMessages: true, PoolPayloads: true}
	p.closed.Store(false)
	p.done = make(chan struct{})
	go p.readLoop(w, p.done)
}

func (p *publisher) readLoop(w *wire, done chan struct{}) {
	defer close(done)
	for {
		b, err := w.read()
		if err != nil {
			if !p.closed.Load() {
				p.mu.Lock()
				p.readErr = err
				p.mu.Unlock()
			}
			return
		}
		p.dec.Feed(b)
		p.mu.Lock()
		for {
			m, err := p.dec.Next()
			if err != nil {
				p.readErr = err
				p.mu.Unlock()
				return
			}
			if m == nil {
				break
			}
			if m.Kind == protocol.KindPubAck {
				p.onAck(m, now())
			}
			protocol.ReleaseMessage(m)
		}
		p.mu.Unlock()
	}
}

// onAck files one PUBACK. Called with p.mu held.
func (p *publisher) onAck(m *protocol.Message, t int64) {
	idx, due, phase, ok := parseID(m.ID)
	if !ok {
		p.or.unknownAcks++
		p.or.note("PUBACK with malformed ID %q", m.ID)
		return
	}
	if m.Status != protocol.StatusOK {
		p.retry.add(idx, m.ID)
		return
	}
	if !p.or.ack(idx) {
		return
	}
	top := &p.ackedMax[p.ref.topic(idx)]
	if int64(idx)+1 > top.Load() {
		top.Store(int64(idx) + 1)
	}
	if steadyPhase(phase) {
		p.ackHist.record(phase, t-due)
	}
	if p.spans != nil {
		p.spans.ackDecode[idx] = t
	}
}

// emit runs the open-loop schedule for one segment: Poisson arrivals at
// rate per second starting at from, until count messages were sent
// (count > 0), an arrival falls at or after until, or stop is set.
// Publishes that come
// due together share one write. It returns the time the next segment
// continues from: the last arrival, or until.
func (p *publisher) emit(phase int, rate float64, from, until int64, count int, stop *atomic.Bool) (int64, error) {
	p.sched.t = float64(from)
	due := p.sched.next(rate)
	last, sent := from, 0
	finished := func() bool {
		if count > 0 {
			return sent >= count
		}
		return due >= until || (stop != nil && stop.Load())
	}
	var dues []int64
	for !finished() {
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		t := now()
		p.batch, dues = p.batch[:0], dues[:0]
		size := 0
		for _, r := range p.retry.take() {
			p.batch = append(p.batch, p.publish(r.idx, r.id))
			size += p.ref.size + 64
		}
		retried := len(p.batch)
		for !finished() && due <= t && size < maxWrite {
			if p.next >= p.limit {
				return due, errors.New("publisher: per-message state exhausted")
			}
			p.idBuf = appendID(p.idBuf[:0], p.next, due, phase)
			p.batch = append(p.batch, p.publish(p.next, string(p.idBuf)))
			dues = append(dues, due)
			last = due
			size += p.ref.size + 64
			p.next++
			sent++
			due = p.sched.next(rate)
		}
		if len(p.batch) == retried {
			if retried > 0 {
				if err := p.w.write(p.encode()); err != nil {
					return due, fmt.Errorf("publisher write: %w", err)
				}
			}
			continue
		}
		e0 := now()
		frames := p.encode()
		ws := now()
		err := p.w.write(frames)
		we := now()
		p.sent[phase] += int64(len(dues))
		first := p.next - uint64(len(dues))
		if steadyPhase(phase) {
			for _, d := range dues {
				p.late.Record(ws - d)
			}
			p.writes++
			p.frames += int64(len(p.batch))
			p.writeNs += we - ws
			p.encodeNs += ws - e0
		}
		if p.spans != nil {
			for i, d := range dues {
				p.spans.due[first+uint64(i)] = d
				p.spans.writeStart[first+uint64(i)] = ws
				p.spans.writeEnd[first+uint64(i)] = we
			}
		}
		if err != nil {
			return due, fmt.Errorf("publisher write: %w", err)
		}
	}
	if count > 0 {
		return last, nil
	}
	return until, nil
}

// publish builds the PUBLISH of message idx; retries reuse the first ID.
func (p *publisher) publish(idx uint64, id string) protocol.Message {
	_, due, _, _ := parseID(id)
	return protocol.Message{
		Kind:      protocol.KindPublish,
		Flags:     protocol.FlagAckRequired,
		Topic:     p.ref.topics[p.ref.topic(idx)],
		ID:        id,
		Payload:   p.ref.payload(idx),
		Timestamp: due,
	}
}

// encode frames the batch into the write buffer.
func (p *publisher) encode() []byte {
	p.buf = p.buf[:0]
	for i := range p.batch {
		p.buf = protocol.AppendEncode(p.buf, &p.batch[i])
	}
	return p.buf
}

// resend writes the retries that came in while no schedule ran.
func (p *publisher) resend() error {
	p.batch = p.batch[:0]
	for _, r := range p.retry.take() {
		p.batch = append(p.batch, p.publish(r.idx, r.id))
	}
	if len(p.batch) == 0 {
		return nil
	}
	return p.w.write(p.encode())
}

func (p *publisher) close() {
	p.closed.Store(true)
	p.w.close()
	<-p.done
}

// catchup tracks one resume: the subscriber has caught up once, for every
// topic, it holds the message the publisher had been acknowledged for
// when the resubscribe was written.
type catchup struct {
	start     int64
	target    []int64 // per topic: index + 1 to reach
	remaining int
	done      int64
}

// subscriber owns the subscribing connection, one reader goroutine per
// connection; a resume closes the connection, waits for its reader, and
// dials again.
type subscriber struct {
	ref    *reference
	mode   string
	spans  *spanStore
	trace  bool
	w      *wire
	dec    protocol.StreamDecoder
	closed atomic.Bool
	done   chan struct{}

	mu       sync.Mutex // guards the fields below; the reader holds it per read
	or       *subOracle
	deliver  phaseHists
	lastIdx  []int64 // per topic: highest delivered index + 1
	cu       *catchup
	catchups Hist
	resumes  []*catchup
	lost     int64 // connections the server closed
	// slowCatchups counts resumes not caught up within catchupMax.
	slowCatchups int64
	readErr      error

	decodeNs, decoded, readBytes, notifies int64
}

func newSubscriber(ref *reference, mode string, limit int, spans *spanStore, trace bool) *subscriber {
	return &subscriber{
		ref: ref, mode: mode, spans: spans, trace: trace,
		or:      newSubOracle(ref, limit),
		lastIdx: make([]int64, len(ref.topics)),
	}
}

// subscribeFrame encodes a SUBSCRIBE for every topic, resuming each from
// the last delivered position (zero means "from now on").
func (s *subscriber) subscribeFrame() []byte {
	m := protocol.Message{Kind: protocol.KindSubscribe, Topics: make([]protocol.TopicPosition, len(s.ref.topics))}
	for i, t := range s.ref.topics {
		m.Topics[i] = protocol.TopicPosition{Topic: t, Epoch: s.or.pos[i].epoch, Seq: s.or.pos[i].seq}
	}
	return protocol.Encode(&m)
}

// connect dials addr, subscribes and waits for the SUBACK: the last step of
// set-up.
func (s *subscriber) connect(addr string, port int) error {
	w, err := dial(addr, s.mode, port)
	if err != nil {
		return err
	}
	s.dec = protocol.StreamDecoder{PoolMessages: true, PoolPayloads: true}
	if err := w.write(s.subscribeFrame()); err != nil {
		w.close()
		return err
	}
	m, err := w.awaitKind(&s.dec, protocol.KindSubAck)
	if err != nil {
		w.close()
		return err
	}
	protocol.ReleaseMessage(m)
	s.start(w)
	return nil
}

func (s *subscriber) start(w *wire) {
	s.w = w
	s.closed.Store(false)
	s.done = make(chan struct{})
	go s.readLoop(w, s.done)
}

// resume dials addr and resubscribes from the last delivered positions,
// timing the catch-up against the publisher's acknowledged positions.
func (s *subscriber) resume(addr string, p *publisher) error {
	w, err := dial(addr, s.mode, 0)
	if err != nil {
		return err
	}
	s.dec = protocol.StreamDecoder{PoolMessages: true, PoolPayloads: true}
	s.mu.Lock()
	s.or.resumed = true
	frame := s.subscribeFrame()
	cu := &catchup{target: make([]int64, len(s.ref.topics))}
	for t := range cu.target {
		cu.target[t] = p.ackedMax[t].Load()
		if s.lastIdx[t] < cu.target[t] {
			cu.remaining++
		}
	}
	cu.start = now()
	if cu.remaining == 0 {
		cu.done = cu.start
		s.catchups.Record(0)
	}
	s.cu = cu
	s.resumes = append(s.resumes, cu)
	s.mu.Unlock()
	if err := w.write(frame); err != nil {
		w.close()
		return err
	}
	s.start(w)
	return nil
}

// disconnect closes the connection from the client side and waits for its
// reader to finish.
func (s *subscriber) disconnect() {
	if s.w == nil {
		return
	}
	s.closed.Store(true)
	s.w.close()
	<-s.done
	s.w = nil
}

func (s *subscriber) readLoop(w *wire, done chan struct{}) {
	defer close(done)
	for {
		b, err := w.read()
		if err != nil {
			if !s.closed.Load() {
				s.mu.Lock()
				s.lost++
				s.readErr = fmt.Errorf("after %d resumes: %w", len(s.resumes), err)
				s.mu.Unlock()
			}
			return
		}
		s.dec.Feed(b)
		s.mu.Lock()
		s.readBytes += int64(len(b))
		for {
			var t0 int64
			if s.trace {
				t0 = now()
			}
			m, err := s.dec.Next()
			t := now()
			if err != nil {
				s.readErr = err
				s.mu.Unlock()
				return
			}
			if m == nil {
				break
			}
			if s.trace {
				s.decodeNs += t - t0
				s.decoded++
			}
			if m.Kind == protocol.KindNotify {
				s.onNotify(m, t)
			}
			protocol.ReleaseMessage(m)
		}
		s.mu.Unlock()
	}
}

// onNotify files one NOTIFY decoded at t. Called with s.mu held.
func (s *subscriber) onNotify(m *protocol.Message, t int64) {
	idx, due, phase, ok := parseID(m.ID)
	if !ok {
		s.or.bad(&s.or.corrupt, "NOTIFY with malformed ID %q", m.ID)
		return
	}
	if s.or.notify(m.Topic, m.Epoch, m.Seq, m.Payload, idx) != deliveredOK {
		return
	}
	live := m.Flags&protocol.FlagRetransmission == 0
	if live && steadyPhase(phase) {
		s.deliver.record(phase, t-due)
	}
	if s.spans != nil && live {
		s.spans.decode[idx] = t
	}
	s.notifies++
	topic := s.ref.topic(idx)
	prev, reached := s.lastIdx[topic], int64(idx)+1
	if reached <= prev {
		return
	}
	s.lastIdx[topic] = reached
	if cu := s.cu; cu != nil && cu.done == 0 && prev < cu.target[topic] && reached >= cu.target[topic] {
		cu.remaining--
		if cu.remaining == 0 {
			cu.done = t
			s.catchups.Record(t - cu.start)
		}
	}
}

// deliverHist returns the deliver-latency histogram of phases [from, to)
// merged.
func (s *subscriber) deliverHist(from, to int) *Hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deliver.merged(from, to)
}
