package main

import (
	"bytes"
	"testing"
)

// notifyAll feeds the oracle the reference deliveries of messages
// [from, to), numbering each topic's messages from seq 1 in index order,
// and returns the verdicts that were not deliveredOK.
func notifyAll(o *subOracle, seqs []uint64, from, to uint64, edit func(i uint64, seq *uint64, payload *[]byte)) []verdict {
	var bad []verdict
	for i := from; i < to; i++ {
		t := o.ref.topic(i)
		seqs[t]++
		seq, payload := seqs[t], o.ref.payload(i)
		if edit != nil {
			edit(i, &seq, &payload)
		}
		if v := o.notify(o.ref.topics[t], 1, seq, payload, i); v != deliveredOK {
			bad = append(bad, v)
		}
	}
	return bad
}

func TestOracleCatchesGapAndCorruptPayload(t *testing.T) {
	ref := newReference(7, 4, 140)
	o := newSubOracle(ref, 1000)
	seqs := make([]uint64, 4)
	if bad := notifyAll(o, seqs, 0, 100, nil); len(bad) != 0 || o.fatal() {
		t.Fatalf("clean stream flagged: %v", bad)
	}

	// Message 100 is lost: its topic's next delivery skips a seq.
	lost := ref.topic(100)
	seqs[lost]++
	bad := notifyAll(o, seqs, 101, 200, nil)
	if o.gaps != 1 || len(bad) != 1 || bad[0] != deliveredGap {
		t.Fatalf("gap not caught: gaps %d, verdicts %v", o.gaps, bad)
	}

	// Message 250's payload has one byte flipped.
	bad = notifyAll(o, seqs, 200, 300, func(i uint64, _ *uint64, p *[]byte) {
		if i == 250 {
			c := bytes.Clone(*p)
			c[17] ^= 1
			*p = c
		}
	})
	if o.corrupt != 1 || len(bad) != 1 || bad[0] != deliveredCorrupt {
		t.Fatalf("corrupt payload not caught: corrupt %d, verdicts %v", o.corrupt, bad)
	}
	if !o.fatal() {
		t.Fatal("a gap and a corrupt payload must be fatal")
	}
	if n := o.have.missing(0, 300); n != 2 {
		t.Errorf("missing %d, want 2 (the lost and the corrupt message)", n)
	}
}

func TestOracleDuplicatesOnlyAfterResumeOrRetry(t *testing.T) {
	ref := newReference(9, 2, 32)
	o := newSubOracle(ref, 100)
	o.retried = &retries{}
	seqs := make([]uint64, 2)
	notifyAll(o, seqs, 0, 10, nil)
	t0 := ref.topic(3)

	// A replay of message 3 (same seq) before any resume is a failure.
	if v := o.notify(ref.topics[t0], 1, 1, ref.payload(3), 3); v != deliveredDup || o.dupsBeforeResume != 1 {
		t.Fatalf("early duplicate: verdict %v, dupsBeforeResume %d", v, o.dupsBeforeResume)
	}
	// A retried publish is sequenced again: allowed, and it moves the topic on.
	o.retried.add(4, "retried")
	t4 := ref.topic(4)
	seqs[t4]++
	if v := o.notify(ref.topics[t4], 1, seqs[t4], ref.payload(4), 4); v != deliveredDup || o.dupsBeforeResume != 1 {
		t.Fatalf("retried duplicate: verdict %v, dupsBeforeResume %d", v, o.dupsBeforeResume)
	}
	if bad := notifyAll(o, seqs, 10, 20, nil); len(bad) != 0 {
		t.Fatalf("stream after a retried duplicate flagged: %v", bad)
	}
	// After a resume, duplicates are allowed.
	o.resumed = true
	if v := o.notify(ref.topics[t0], 1, 1, ref.payload(3), 3); v != deliveredDup || o.dupsBeforeResume != 1 {
		t.Fatalf("duplicate after resume: verdict %v, dupsBeforeResume %d", v, o.dupsBeforeResume)
	}
	if o.fatal() {
		t.Fatal("duplicates are not fatal")
	}
}

func TestPubOracleExactlyOneAck(t *testing.T) {
	o := newPubOracle(64)
	if !o.ack(5) {
		t.Fatal("first ack rejected")
	}
	if o.ack(5) || o.dupAcks != 1 {
		t.Fatalf("second ack accepted: dupAcks %d", o.dupAcks)
	}
	if o.ack(1000) || o.unknownAcks != 1 {
		t.Fatalf("ack out of range accepted: unknownAcks %d", o.unknownAcks)
	}
	if n := o.acked.missing(0, 10); n != 9 {
		t.Errorf("unacked %d, want 9", n)
	}
}
