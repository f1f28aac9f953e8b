package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"migratorydata/internal/core"
)

// Run shape. The steady window is --seconds long; the other phases are
// fixed so their sample counts do not depend on it.
const (
	warmMaxSeconds = 2.0                   // cap on warm-up when the history rings cannot fill in time
	resumes        = 150                   // resumes in the resume phase: 15 catch-up samples beyond p90
	onlineFor      = 20 * time.Millisecond // subscriber online per resume cycle once caught up
	catchupMax     = 2 * time.Second       // a catch-up is recorded at most this long
	offlineFor     = 50 * time.Millisecond // subscriber offline per resume cycle
	tailQ          = 0.90                  // the tail percentile reported
	drainFor       = 3 * time.Second       // fixed window for outstanding acks and notifications
	setupsWarm     = 4                     // untimed set-ups first: the first ones fault in memory and read slow
	setups         = 21                    // set-ups timed per run, the session's among them; the median is reported
	cacheCapacity  = 1024                  // engine default history depth per topic

	// Client ports of the publisher and of the subscriber's first
	// connection (see dial), below the kernel's ephemeral range.
	publisherPort  = 29001
	subscriberPort = 29002
)

type options struct {
	w       workload
	seed    int64
	seconds int
}

// bench is one session: a deployment and its two client connections.
type bench struct {
	opts  options
	d     *deployment
	pub   *publisher
	sub   *subscriber
	spans *spanStore
	next  int64 // time the schedule continues from after the steady window
}

// capacity bounds the messages a session can send: warm-up, then the
// steady and resume phases at the workload's rate with headroom.
func capacity(o options, warm int) int {
	n := o.w.rate * (float64(o.seconds) + (onlineFor+offlineFor+300*time.Millisecond).Seconds()*resumes + 2) * 1.2
	return warm + int(n) + 1024
}

// setup builds a session and returns it with its set-up time: from the
// start of server construction to the subscriber's SUBACK.
func setup(o options, ref *reference, limit int, traced bool) (*bench, float64, error) {
	b := &bench{opts: o}
	traceN := 0
	if traced {
		b.spans, traceN = newSpanStore(limit), limit
	}
	start := now()
	d, err := deploy(o.w, traceN)
	if err != nil {
		return nil, 0, err
	}
	b.d = d
	pw, err := dial(d.srv.Addr(), o.w.mode, publisherPort)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	b.pub = newPublisher(ref, pw, uint64(o.seed), limit, b.spans)
	b.sub = newSubscriber(ref, o.w.mode, limit, b.spans, traced)
	b.sub.or.retried = b.pub.retry
	if err := b.sub.connect(d.srv.Addr(), subscriberPort); err != nil {
		b.pub.close()
		d.close()
		return nil, 0, err
	}
	return b, float64(now()-start) / 1e9, nil
}

func (b *bench) close() {
	b.sub.disconnect()
	b.pub.close()
	b.d.close()
}

// snapshot is the process and engine state at a window boundary.
type snapshot struct {
	at      int64
	cpuNs   int64
	mem     runtime.MemStats
	eng     core.Stats
	lockAcq int64

	goroutines int
	heapInuse  uint64 // after a forced GC
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// snap reads the counters; with gc it then collects and reads the live
// heap, so the GC it forces shows in no other figure.
func (b *bench) snap(gc bool) snapshot {
	s := snapshot{at: now(), cpuNs: cpuTime(), goroutines: runtime.NumGoroutine()}
	runtime.ReadMemStats(&s.mem)
	if gc {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.heapInuse = m.HeapInuse
	}
	s.eng = b.d.srv.Stats()
	s.lockAcq = b.d.srv.Engine().Cache().MemStats().GroupLockAcquisitions
	return s
}

// egressSampler records the largest egress queue and slow-consumer count
// seen while a window runs.
type egressSampler struct {
	stop              chan struct{}
	done              chan struct{}
	queueMax, slowMax int64
}

func (b *bench) sampleEgress() *egressSampler {
	e := &egressSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-tick.C:
			}
			st := b.d.srv.Stats()
			e.queueMax, e.slowMax = max(e.queueMax, st.EgressQueueBytes), max(e.slowMax, st.SlowConsumers)
		}
	}()
	return e
}

func (e *egressSampler) finish() {
	close(e.stop)
	<-e.done
}

// window is what the steady window measured.
type window struct {
	start, end snapshot
	sent       int64
	cpuPerMsg  []float64 // CPU µs per publish in each second
	egress     *egressSampler
}

// warmAndSteady warms the history caches, then runs the steady window one
// second at a time; with sample it also polls the egress gauges.
func (b *bench) warmAndSteady(warm int, sample bool) (window, error) {
	last, err := b.pub.emit(phaseWarm, b.opts.w.rate, now(), 0, warm, nil)
	if err != nil {
		return window{}, err
	}
	b.d.srv.Engine().ResetMeters()
	var win window
	if sample {
		win.egress = b.sampleEgress()
	}
	win.start = b.snap(false)
	cpu := win.start.cpuNs
	for k := range b.opts.seconds {
		phase := phaseSteady + k
		last, err = b.pub.emit(phase, b.opts.w.rate, last, last+int64(time.Second), 0, nil)
		if err != nil {
			break
		}
		c := cpuTime()
		win.cpuPerMsg = append(win.cpuPerMsg, float64(c-cpu)/1e3/float64(b.pub.sent[phase]))
		win.sent += b.pub.sent[phase]
		cpu = c
	}
	if sample {
		win.egress.finish()
	}
	if err != nil {
		return window{}, err
	}
	b.next = last
	win.end = b.snap(true)
	return win, nil
}

// resumePhase keeps publishing at the base rate while the subscriber
// cycles: online until caught up and onlineFor more, offline for
// offlineFor, then a resubscribe from its last positions.
func (b *bench) resumePhase() error {
	var stop atomic.Bool
	errc := make(chan error, 1)
	go func() {
		defer stop.Store(true)
		for k := range resumes + 1 {
			b.awaitCatchup()
			time.Sleep(onlineFor)
			if k == resumes {
				break
			}
			b.sub.disconnect()
			time.Sleep(offlineFor)
			if err := b.sub.resume(b.d.srv.Addr(), b.pub); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	_, err := b.pub.emit(phaseResume, b.opts.w.rate, max(b.next, now()), math.MaxInt64, 0, &stop)
	if err != nil {
		stop.Store(true)
	}
	if cerr := <-errc; err == nil {
		err = cerr
	}
	return err
}

// awaitCatchup waits until the current resume has caught up. One that takes
// longer than catchupMax is recorded at catchupMax.
func (b *bench) awaitCatchup() {
	done := func() bool {
		b.sub.mu.Lock()
		defer b.sub.mu.Unlock()
		return b.sub.cu == nil || b.sub.cu.done != 0
	}
	if waitFor(catchupMax, done) {
		return
	}
	b.sub.mu.Lock()
	if cu := b.sub.cu; cu.done == 0 {
		cu.done = cu.start + int64(catchupMax)
		b.sub.catchups.Record(int64(catchupMax))
		b.sub.slowCatchups++
	}
	b.sub.mu.Unlock()
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := now() + int64(timeout)
	for !cond() {
		if now() > deadline {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// failureCount sums every failure the clients have seen so far, apart
// from messages still outstanding.
func (b *bench) failureCount() int64 {
	b.sub.mu.Lock()
	n := b.sub.or.gaps + b.sub.or.corrupt + b.sub.or.dupsBeforeResume + b.sub.lost
	b.sub.mu.Unlock()
	b.pub.mu.Lock()
	n += b.pub.or.failures()
	if b.pub.readErr != nil {
		n++
	}
	b.pub.mu.Unlock()
	return n
}

// drain waits, at most timeout, for every message below limit to be
// acknowledged and delivered.
func (b *bench) drain(limit uint64, timeout time.Duration) {
	waitFor(timeout, func() bool {
		_ = b.pub.resend() // a failed write shows as unacknowledged publishes
		b.pub.mu.Lock()
		acked := b.pub.or.acked.missing(0, limit) == 0
		b.pub.mu.Unlock()
		b.sub.mu.Lock()
		defer b.sub.mu.Unlock()
		return acked && b.sub.or.have.missing(0, limit) == 0
	})
}

// account closes the session's books over messages [0, limit):
// attempted is publishes plus expected notifications.
func (b *bench) account(limit uint64, res *result) error {
	b.pub.mu.Lock()
	unacked := b.pub.or.acked.missing(0, limit)
	pubBad, pubErr := b.pub.or.firstBad, b.pub.readErr
	b.pub.mu.Unlock()
	b.sub.mu.Lock()
	missing := b.sub.or.have.missing(0, limit)
	fatal := b.sub.or.fatal()
	subBad, lost := b.sub.or.firstBad, b.sub.lost
	if b.sub.readErr != nil {
		subBad += fmt.Sprintf(" (last read error %v)", b.sub.readErr)
	}
	b.sub.mu.Unlock()
	failed := unacked + missing + b.failureCount()
	res.Attempted += 2 * int64(limit)
	res.Failed += failed
	if failed > 0 {
		end := b.snap(false)
		fmt.Fprintf(os.Stderr, "perfbench: %d failures (unacked %d, missing %d, connections lost %d, publisher read error %v, pressure disconnects %d); first subscriber problem: %q; first publisher problem: %q\n",
			failed, unacked, missing, lost, pubErr, end.eng.PressureDisconnects, subBad, pubBad)
	}
	if fatal {
		res.Correct = false
		return errors.New("reliable gap or payload mismatch")
	}
	return nil
}

// warmCount is the warm-up length in messages: until every topic's
// history ring is full, but at most warmMaxSeconds of traffic, and never
// before every topic has a message.
func warmCount(o options, ref *reference) int {
	full := ref.warmCount(cacheCapacity, int(o.w.rate*warmMaxSeconds))
	return max(full, ref.warmCount(1, math.MaxInt))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeSetups builds and closes n sessions and returns their set-up times.
// A GC before each keeps the collection of earlier garbage out of the
// timed span.
func timeSetups(o options, ref *reference, limit, n int) ([]float64, error) {
	var times []float64
	for range n {
		runtime.GC()
		s, secs, err := setup(o, ref, limit, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.close()
		times = append(times, secs)
	}
	return times, nil
}

// runMeasured is the untraced run: timed set-ups around one session of
// warm-up, steady window and resume phase.
func runMeasured(o options) (*result, error) {
	ref := newReference(uint64(o.seed), o.w.topics, o.w.size)
	warm := warmCount(o, ref)
	limit := capacity(o, warm)
	// Half the timed set-ups run before the session and half after it, so
	// the median samples the host over the whole run, not one moment.
	if _, err := timeSetups(o, ref, limit, setupsWarm); err != nil {
		return nil, err
	}
	times, err := timeSetups(o, ref, limit, setups/2)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	b, secs, err := setup(o, ref, limit, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	times = append(times, secs)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	win, err := b.warmAndSteady(warm, false)
	if err == nil {
		err = b.resumePhase()
	}
	if err != nil {
		b.close()
		return nil, err
	}
	b.drain(b.pub.next, drainFor)
	b.close()
	if err := b.account(b.pub.next, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	after, err := timeSetups(o, ref, limit, setups/2)
	if err != nil {
		return nil, err
	}
	times = append(times, after...)

	deliver := b.sub.deliverHist(phaseSteady, maxPhases)
	res.set("setup_s", "s", median(times))
	res.set("deliver_p50_ms", "ms", deliver.QuantileMs(0.50))
	res.set("deliver_p90_ms", "ms", b.sub.deliver.medianQuantileMs(tailQ, phaseSteady, maxPhases))
	res.set("ack_p50_ms", "ms", b.pub.ackHist.merged(phaseSteady, maxPhases).QuantileMs(0.50))
	res.set("cpu_us_per_msg", "us", median(win.cpuPerMsg))
	res.set("heap_mb", "MB", float64(win.end.heapInuse)/(1<<20))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d deliver samples, %d catch-up samples (%d at the %v cap)\n",
		o.w.name, o.seed, deliver.Count(), b.sub.catchups.Count(), b.sub.slowCatchups, catchupMax)
	return res, nil
}
