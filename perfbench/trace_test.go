package main

import (
	"testing"
)

// TestSpansTelescope runs a short traced session against a real server
// and checks, for every traced message, that the per-layer stages sum to
// exactly the deliver latency the subscriber measured.
func TestSpansTelescope(t *testing.T) {
	o := options{
		w:       workload{name: "test", mode: "raw", topics: 4, size: 64, rate: 4000},
		seed:    3,
		seconds: 1,
	}
	ref := newReference(uint64(o.seed), o.w.topics, o.w.size)
	warm := warmCount(o, ref)
	limit := capacity(o, warm)
	b, _, err := setup(o, ref, limit, true)
	if err != nil {
		t.Fatal(err)
	}
	win, err := b.warmAndSteady(warm, false)
	if err != nil {
		b.close()
		t.Fatal(err)
	}
	b.drain(b.pub.next, drainFor)
	b.close()
	var res result
	if err := b.account(b.pub.next, &res); err != nil || res.Failed != 0 {
		t.Fatalf("session failed: %v, %d failures", err, res.Failed)
	}
	if _, err := b.alignSpans(); err != nil {
		t.Fatal(err)
	}

	measured := b.sub.deliverHist(phaseSteady, maxPhases)
	spans := collectSpans(b)
	if spans.broken != 0 {
		t.Fatalf("%d messages whose stages do not sum to their deliver latency", spans.broken)
	}
	lo, hi := b.steadyRange()
	if hi-lo != uint64(win.sent) {
		t.Fatalf("steady range %d..%d holds %d messages, the window sent %d", lo, hi, hi-lo, win.sent)
	}
	traced := 0
	for i := lo; i < hi; i++ {
		st, total, ok := b.spans.deliverStages(i)
		if !ok {
			continue
		}
		traced++
		if st.sum() != total || total != b.spans.decode[i]-b.spans.due[i] {
			t.Fatalf("message %d: stages %+v sum to %d, deliver latency %d", i, st, st.sum(), total)
		}
	}
	if traced != len(spans.deliver) || uint64(traced) != measured.Count() {
		t.Fatalf("traced %d messages, collected %d, subscriber measured %d", traced, len(spans.deliver), measured.Count())
	}
	if traced < int(win.sent)*9/10 {
		t.Fatalf("only %d of %d steady messages traced", traced, win.sent)
	}
}

// TestAlignRemovesClockDrift feeds a sink timestamps that run ahead of the
// true times by a growing offset, as the recorder's clamped deltas do, and
// checks that alignment brings each one back within half its bracket.
func TestAlignRemovesClockDrift(t *testing.T) {
	const n = 4000
	sp := newSpanStore(n)
	k := newTraceSink(n)
	k.anchor(1_000_000, 1_000_050)
	truth := make([]int64, n)
	for i := range n {
		ws := int64(2_000_000 + i*100_000)      // a publish every 100 µs
		in := ws + 30_000 + int64(i%7)*5_000    // read 30–60 µs after the write started
		dec := in + 200_000 + int64(i%5)*20_000 // decoded 200–280 µs later
		drift := int64(i/1000) * 3_000_000      // the recorder falls 3 ms behind every 1000 events
		sp.writeStart[i], sp.decode[i] = ws, dec
		truth[i] = in
		setOnce(&k.in, n, uint64(i), in+drift)
		k.ts = in + drift - k.base
	}
	widths := k.align(sp, n)
	if len(widths) != n {
		t.Fatalf("%d brackets for %d events", len(widths), n)
	}
	for i := range n {
		if err := k.in[i] - truth[i]; err < -widths[i]/2-1 || err > widths[i]/2+1 {
			t.Fatalf("event %d: corrected time off by %d ns, bracket %d ns", i, err, widths[i])
		}
	}
}
