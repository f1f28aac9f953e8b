package main

import (
	"fmt"
	"os"
)

// runTraced is the per-layer run. An untraced session (warm-up and the
// steady window) gives the program's counters and the reference deliver
// latency; a traced session (warm-up, steady window, resume phase) with a
// capture.Recorder on the server gives the spans. The difference of the
// two sessions' deliver p50 is the tracing overhead.
func runTraced(o options) (*result, error) {
	ref := newReference(uint64(o.seed), o.w.topics, o.w.size)
	warm := warmCount(o, ref)
	limit := capacity(o, warm)
	res := &result{Correct: true, Metrics: map[string]metric{}}

	b, _, err := setup(o, ref, limit, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	win, err := b.warmAndSteady(warm, true)
	if err != nil {
		b.close()
		return nil, err
	}
	b.drain(b.pub.next, drainFor)
	b.close()
	if err := b.account(b.pub.next, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}

	t, _, err := setup(o, ref, limit, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	twin, err := t.warmAndSteady(warm, false)
	if err != nil {
		t.close()
		return nil, err
	}
	if err := t.resumePhase(); err != nil {
		t.close()
		return nil, err
	}
	after := t.snap(false)
	t.drain(t.pub.next, drainFor)
	t.close()
	if err := t.account(t.pub.next, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	widths, err := t.alignSpans()
	if err != nil {
		return nil, err
	}

	reportCounters(res, b, win)
	reportSpans(res, t, twin)
	reportResumes(res, t)
	res.set("cache.replayed_per_resume", "count", float64(after.eng.Retransmitted-twin.end.eng.Retransmitted)/resumes)
	res.set("resume.catchup_p50_ms", "ms", t.sub.catchups.QuantileMs(0.50))
	res.set("resume.catchup_p90_ms", "ms", t.sub.catchups.QuantileMs(0.90))
	base := b.sub.deliverHist(phaseSteady, maxPhases).QuantileMs(0.5)
	traced := t.sub.deliverHist(phaseSteady, maxPhases).QuantileMs(0.5)
	res.set("trace.overhead_p50_ms", "ms", traced-base)
	res.set("trace.anchor_us", "us", float64(t.d.sink.width)/1e3)
	res.set("trace.align_us_p50", "us", widths.pctMs(0.5)*1e3)
	res.set("trace.align_us_p99", "us", widths.pctMs(0.99)*1e3)
	return res, nil
}

// alignSpans corrects the sink's clock once the session is closed and
// hands the engine-side timestamps to the span store. It returns the
// widths of the alignment brackets.
func (t *bench) alignSpans() (sample, error) {
	k := t.d.sink
	if k.err != nil {
		return nil, k.err
	}
	widths := k.align(t.spans, t.pub.next)
	t.spans.in, t.spans.ackOut, t.spans.notifyOut = k.in, k.ackOut, k.notifyOut
	return widths, nil
}

// steadyRange returns the message indices of the steady window: they
// follow the warm-up's.
func (t *bench) steadyRange() (uint64, uint64) {
	lo := uint64(t.pub.sent[phaseWarm])
	hi := lo
	for p := phaseSteady; p < maxPhases; p++ {
		hi += uint64(t.pub.sent[p])
	}
	return lo, hi
}

// per divides, reporting 0 for an empty base.
func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// reportCounters files the per-layer figures the program and the runtime
// count, over the untraced session's steady window.
func reportCounters(res *result, b *bench, w window) {
	s, e := w.start, w.end
	msgs := float64(w.sent)
	secs := float64(e.at-s.at) / 1e9
	p := b.pub

	res.set("gen.late_p50_ms", "ms", p.late.QuantileMs(0.5))
	res.set("gen.late_p99_ms", "ms", p.late.QuantileMs(0.99))
	res.set("gen.write_us", "us", per(float64(p.writeNs)/1e3, float64(p.writes)))
	res.set("gen.frames_per_write", "count", per(float64(p.frames), float64(p.writes)))
	res.set("codec.encode_ns_per_frame", "ns", per(float64(p.encodeNs), float64(p.frames)))
	b.sub.mu.Lock()
	res.set("codec.bytes_per_notify", "B", per(float64(b.sub.readBytes), float64(b.sub.notifies)))
	b.sub.mu.Unlock()

	res.set("core.busy_frac", "fraction", e.eng.CPUUtilized)
	res.set("core.routed_per_msg", "count", per(float64(e.eng.DeliverRouted-s.eng.DeliverRouted), msgs))
	res.set("core.fanout_events_per_msg", "count", per(float64(e.eng.FanoutEvents-s.eng.FanoutEvents), msgs))

	res.set("cache.lock_acqs_per_publish", "count", per(float64(e.lockAcq-s.lockAcq), msgs))
	res.set("cache.bytes_mb", "MB", float64(e.eng.CacheBytes)/(1<<20))
	res.set("cache.entries", "count", float64(e.eng.CacheEntries))

	flushes := float64(e.eng.IOFlushes - s.eng.IOFlushes)
	frames := float64(e.eng.Delivered-s.eng.Delivered) + msgs // notifications plus one PUBACK per publish
	res.set("egress.flushes_per_frame", "count", per(flushes, frames))
	res.set("egress.bytes_per_flush", "B", per(float64(e.eng.IOFlushBytes-s.eng.IOFlushBytes), flushes))
	res.set("egress.queue_bytes_max", "B", float64(w.egress.queueMax))
	res.set("egress.slow_consumers_max", "count", float64(w.egress.slowMax))
	res.set("egress.pressure_drops", "count", float64(e.eng.PressureDrops))
	res.set("egress.pressure_disconnects", "count", float64(e.eng.PressureDisconnects))

	res.set("runtime.alloc_bytes_per_msg", "B", per(float64(e.mem.TotalAlloc-s.mem.TotalAlloc), msgs))
	res.set("runtime.gc_cycles_per_s", "1/s", per(float64(e.mem.NumGC-s.mem.NumGC), secs))
	res.set("runtime.gc_pause_total_ms", "ms", float64(e.mem.PauseTotalNs-s.mem.PauseTotalNs)/1e6)
	res.set("runtime.goroutines", "count", float64(e.goroutines))
}

// traceSpans collects the stage spans of every steady-window message whose
// boundaries were all seen. It returns the spans and the number of
// messages whose stages did not sum to their deliver latency (always 0:
// the stages share their boundaries).
type traceSpans struct {
	late, write, ingress, core, egress, deliver sample
	coreAck, egressAck                          sample
	broken                                      int
}

func collectSpans(t *bench) traceSpans {
	var ts traceSpans
	sp := t.spans
	lo, hi := t.steadyRange()
	for i := lo; i < hi; i++ {
		if st, total, ok := sp.deliverStages(i); ok {
			if st.sum() != total {
				ts.broken++
			}
			ts.late = append(ts.late, st.late)
			ts.write = append(ts.write, st.write)
			ts.ingress = append(ts.ingress, st.ingress)
			ts.core = append(ts.core, st.core)
			ts.egress = append(ts.egress, st.egress)
			ts.deliver = append(ts.deliver, total)
		}
		if in, out, dec := sp.in[i], sp.ackOut[i], sp.ackDecode[i]; in != 0 && out != 0 && dec != 0 {
			ts.coreAck = append(ts.coreAck, out-in)
			ts.egressAck = append(ts.egressAck, dec-out)
		}
	}
	return ts
}

// reportSpans files the traced session's per-stage latencies.
func reportSpans(res *result, t *bench, w window) {
	ts := collectSpans(t)
	if ts.broken > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d traced messages do not telescope\n", ts.broken)
		res.Correct = false
	}
	res.set("ingress.p50_ms", "ms", ts.ingress.pctMs(0.5))
	res.set("ingress.p99_ms", "ms", ts.ingress.pctMs(0.99))
	res.set("core.notify_p50_ms", "ms", ts.core.pctMs(0.5))
	res.set("core.notify_p99_ms", "ms", ts.core.pctMs(0.99))
	res.set("core.ack_p50_ms", "ms", ts.coreAck.pctMs(0.5))
	res.set("core.ack_p99_ms", "ms", ts.coreAck.pctMs(0.99))
	res.set("egress.notify_p50_ms", "ms", ts.egress.pctMs(0.5))
	res.set("egress.notify_p99_ms", "ms", ts.egress.pctMs(0.99))
	res.set("egress.ack_p50_ms", "ms", ts.egressAck.pctMs(0.5))
	t.sub.mu.Lock()
	res.set("codec.decode_ns_per_frame", "ns", per(float64(t.sub.decodeNs), float64(t.sub.decoded)))
	t.sub.mu.Unlock()
	res.set("trace.spans", "count", float64(len(ts.deliver)))
	res.set("trace.coverage", "fraction", per(float64(len(ts.deliver)), float64(w.sent)))
}

// reportResumes splits each traced catch-up: subscribe write → the
// server's RecordIn(SUBSCRIBE) → its first retransmission staged → the
// subscriber caught up. The sink's first SUBSCRIBE is the set-up's; resume
// k is the one after it.
func reportResumes(res *result, t *bench) {
	var subscribe, replay, deliver sample
	subs := t.d.sink.subs
	for k, cu := range t.sub.resumes {
		if k+1 >= len(subs) {
			break
		}
		ev := subs[k+1]
		if cu.done == 0 || ev.replay == 0 {
			continue
		}
		subscribe = append(subscribe, ev.in-cu.start)
		replay = append(replay, ev.replay-ev.in)
		deliver = append(deliver, cu.done-ev.replay)
	}
	res.set("resume.subscribe_p50_ms", "ms", subscribe.pctMs(0.5))
	res.set("resume.replay_p50_ms", "ms", replay.pctMs(0.5))
	res.set("resume.deliver_p50_ms", "ms", deliver.pctMs(0.5))
	res.set("resume.traced", "count", float64(len(deliver)))
}
