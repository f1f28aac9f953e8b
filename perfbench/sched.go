package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"
)

// epoch is the benchmark's clock origin: every timestamp is monotonic
// nanoseconds since epoch, so due times, client-side spans and anchored
// recorder events share one clock.
var epoch = time.Now()

// now reads the benchmark clock.
func now() int64 { return int64(time.Since(epoch)) }

// mix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used to
// derive per-message choices from the seed with random access.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// refBlock is the size of the seeded byte block payloads are cut from.
const refBlock = 64 << 10

// reference is the seeded ground truth of a run: which topic message i
// goes to and which bytes it carries. Generator and oracle derive both
// from the message index alone, so the oracle needs no per-message state
// to check a delivery.
type reference struct {
	seed   uint64
	topics []string
	size   int
	block  []byte
}

func newReference(seed uint64, topics, size int) *reference {
	r := &reference{seed: seed, size: size, block: make([]byte, refBlock+size)}
	for i := range topics {
		r.topics = append(r.topics, fmt.Sprintf("bench/%04d", i))
	}
	rng := rand.New(rand.NewPCG(seed, 0x70a7))
	for i := 0; i+8 <= len(r.block); i += 8 {
		v := rng.Uint64()
		for j := range 8 {
			r.block[i+j] = byte(v >> (8 * j))
		}
	}
	return r
}

// topic returns the topic index of message i.
func (r *reference) topic(i uint64) int {
	return int(mix64(r.seed^(i<<1)) % uint64(len(r.topics)))
}

// payload returns the bytes message i carries.
func (r *reference) payload(i uint64) []byte {
	off := mix64(r.seed^(i<<1|1)) % refBlock
	return r.block[off : off+uint64(r.size)]
}

// warmCount returns the number of messages after which every topic has
// received at least perTopic of them, or limit if that is smaller.
func (r *reference) warmCount(perTopic, limit int) int {
	counts := make([]int, len(r.topics))
	short := len(r.topics)
	i := 0
	for ; short > 0 && i < limit; i++ {
		t := r.topic(uint64(i))
		counts[t]++
		if counts[t] == perTopic {
			short--
		}
	}
	return i
}

// Message IDs carry what the receivers of a NOTIFY or PUBACK need without
// shared state: "<index>.<due>.<phase>", each in base 36. The due time is
// needed because a PUBACK does not echo the publish Timestamp.
func appendID(dst []byte, idx uint64, due int64, phase int) []byte {
	dst = strconv.AppendUint(dst, idx, 36)
	dst = append(dst, '.')
	dst = strconv.AppendInt(dst, due, 36)
	dst = append(dst, '.')
	return strconv.AppendInt(dst, int64(phase), 36)
}

// parseID inverts appendID. It takes the ID as a string (decoded frames)
// or as bytes (frames the trace sink parses in place).
func parseID[T string | []byte](id T) (idx uint64, due int64, phase int, ok bool) {
	var f [3]uint64
	n, digits := 0, 0
	for i := 0; i < len(id); i++ {
		c := id[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'z':
			d = uint64(c-'a') + 10
		case c == '.' && n < 2 && digits > 0:
			n, digits = n+1, 0
			continue
		default:
			return 0, 0, 0, false
		}
		f[n] = f[n]*36 + d
		digits++
	}
	if n != 2 || digits == 0 || f[2] >= maxPhases {
		return 0, 0, 0, false
	}
	return f[0], int64(f[1]), int(f[2]), true
}

// poisson yields the arrival times of a Poisson process whose rate may
// change between segments; the arrival sequence depends only on the seed.
type poisson struct {
	rng *rand.Rand
	t   float64 // nanoseconds since the schedule's origin
}

func newPoisson(seed uint64) *poisson {
	return &poisson{rng: rand.New(rand.NewPCG(seed, 0x5c4e))}
}

// next advances to the next arrival at the given rate (per second).
func (p *poisson) next(rate float64) int64 {
	p.t += p.rng.ExpFloat64() / rate * 1e9
	return int64(p.t)
}
