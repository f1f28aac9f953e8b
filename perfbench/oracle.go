package main

import (
	"bytes"
	"fmt"
	"sync"
)

// bitset marks message indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// set marks i and reports whether it was already marked.
func (b bitset) set(i uint64) bool {
	w, m := i/64, uint64(1)<<(i%64)
	was := b[w]&m != 0
	b[w] |= m
	return was
}

func (b bitset) has(i uint64) bool { return b[i/64]&(uint64(1)<<(i%64)) != 0 }

// missing counts the unmarked indices in [lo, hi).
func (b bitset) missing(lo, hi uint64) int64 {
	var n int64
	for i := lo; i < hi; i++ {
		if !b.has(i) {
			n++
		}
	}
	return n
}

// position is the last (epoch, seq) delivered on a topic.
type position struct {
	epoch uint32
	seq   uint64
}

// verdict classifies one delivery.
type verdict int

const (
	deliveredOK verdict = iota
	deliveredDup
	deliveredGap
	deliveredCorrupt
)

// subOracle checks what the subscriber receives against the seeded
// reference: the right topic and payload bytes for the message ID,
// per-topic (epoch, seq) contiguity, and no duplicate before the first
// resume unless the publisher had to send the message twice. It is owned
// by one reader at a time.
type subOracle struct {
	ref     *reference
	pos     []position
	have    bitset
	resumed bool
	retried *retries // publishes sent twice; their duplicates are allowed

	gaps, corrupt, dupsBeforeResume, dups int64
	firstBad                              string
}

func newSubOracle(ref *reference, maxMessages int) *subOracle {
	return &subOracle{ref: ref, pos: make([]position, len(ref.topics)), have: newBitset(maxMessages)}
}

// notify checks one NOTIFY for message idx.
func (o *subOracle) notify(topic string, epoch uint32, seq uint64, payload []byte, idx uint64) verdict {
	if idx >= uint64(len(o.have))*64 {
		o.bad(&o.corrupt, "message index %d out of range", idx)
		return deliveredCorrupt
	}
	t := o.ref.topic(idx)
	if topic != o.ref.topics[t] {
		o.bad(&o.corrupt, "message %d arrived on topic %q, want %q", idx, topic, o.ref.topics[t])
		return deliveredCorrupt
	}
	p := &o.pos[t]
	switch {
	case p.seq == 0 || epoch > p.epoch || (epoch == p.epoch && seq == p.seq+1):
		*p = position{epoch, seq}
	case epoch == p.epoch && seq > p.seq+1:
		o.bad(&o.gaps, "topic %s: seq %d after %d (epoch %d)", topic, seq, p.seq, epoch)
		*p = position{epoch, seq}
		o.have.set(idx)
		return deliveredGap
	}
	if !bytes.Equal(payload, o.ref.payload(idx)) {
		o.bad(&o.corrupt, "message %d: payload differs from the reference", idx)
		return deliveredCorrupt
	}
	if o.have.set(idx) {
		o.dups++
		if !o.resumed && (o.retried == nil || !o.retried.has(idx)) {
			o.bad(&o.dupsBeforeResume, "message %d delivered twice before any resume", idx)
		}
		return deliveredDup
	}
	return deliveredOK
}

func (o *subOracle) bad(counter *int64, format string, args ...any) {
	*counter++
	if o.firstBad == "" {
		o.firstBad = fmt.Sprintf(format, args...)
	}
}

// fatal reports the violations that make the run exit non-zero: a
// reliable gap or a payload that differs from the reference.
func (o *subOracle) fatal() bool { return o.gaps > 0 || o.corrupt > 0 }

// retries holds the publishes the server failed (a PUBACK with a non-OK
// status). As the protocol asks, the publisher sends them again with the
// same ID; a duplicate delivery of such a message is allowed.
type retries struct {
	mu      sync.Mutex
	pending []retry
	all     map[uint64]bool
}

type retry struct {
	idx uint64
	id  string
}

func (r *retries) add(idx uint64, id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.all == nil {
		r.all = map[uint64]bool{}
	}
	r.all[idx] = true
	r.pending = append(r.pending, retry{idx, id})
}

// take returns the retries not yet sent.
func (r *retries) take() []retry {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pending
	r.pending = nil
	return p
}

func (r *retries) has(idx uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all[idx]
}

// pubOracle checks that every publish gets exactly one OK PUBACK; a failed
// one is retried and must then succeed.
type pubOracle struct {
	acked       bitset
	dupAcks     int64
	unknownAcks int64
	firstBad    string
}

func newPubOracle(maxMessages int) *pubOracle {
	return &pubOracle{acked: newBitset(maxMessages)}
}

// ack records an OK PUBACK for message idx and reports whether it was the
// first.
func (o *pubOracle) ack(idx uint64) bool {
	switch {
	case idx >= uint64(len(o.acked))*64:
		o.unknownAcks++
		o.note("PUBACK for unknown message %d", idx)
		return false
	case o.acked.set(idx):
		o.dupAcks++
		o.note("message %d acknowledged twice", idx)
		return false
	}
	return true
}

func (o *pubOracle) note(format string, args ...any) {
	if o.firstBad == "" {
		o.firstBad = fmt.Sprintf(format, args...)
	}
}

func (o *pubOracle) failures() int64 { return o.dupAcks + o.unknownAcks }
