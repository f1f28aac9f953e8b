// Command perfbench is the repository benchmark: open-loop publish→notify
// latency over real loopback sockets against the in-process server, with
// every delivery checked against a seeded reference.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// runs an untraced and a traced session and reports the per-layer metrics.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
)

// workload is one traffic mix. Engine configuration is always the default.
type workload struct {
	name   string
	mode   string // client framing: "raw" or "ws"
	topics int
	size   int     // payload bytes
	rate   float64 // publishes per second in the steady and resume phases
}

var workloads = []workload{
	{name: "stream", mode: "raw", topics: 64, size: 140, rate: 20000},
	{name: "bulk", mode: "ws", topics: 4, size: 16 << 10, rate: 2000},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload name: stream or bulk")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the steady measurement window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || *seconds > maxSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload stream|bulk --seed N --seconds 1..%d --trace 0|1\n", maxSeconds)
		os.Exit(2)
	}
	opts := options{w: workloads[i], seed: *seed, seconds: *seconds}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(opts)
	} else {
		res, err = runMeasured(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
