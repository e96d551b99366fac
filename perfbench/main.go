// Command perfbench measures rankagg on its served path: server.New on a
// loopback listener, driven by two closed-loop clients through one of
// two workloads, with every answer checked after the timed phase.
//
//	perfbench --workload exact-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// replays the run's op sequence in-process with a span around each call
// into a layer and prints the per-layer metrics. The last line of
// standard output is the result object; the line before it is a report
// with sample counts, counters per phase and the environment. The exit
// code is 0 only when every op succeeded and every check passed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // shrink every shape (the self-test sets it)
	dataRoot string // store directories go below it
}

// opsMargin is how many times the op count a client's measured rate
// needs for the timed phase its sequence holds. A client that runs out
// fails the run.
const opsMargin = 3

// runLimit bounds a whole run of a timed phase of the given length: set-up,
// restarts and checks take about as long again as the phase, and --trace 1
// replays the run once and about half of it again, so five phases plus
// 20 s leave room for a machine half as fast; at the benchmark's 30 s
// that is 170 s.
func runLimit(seconds float64) time.Duration {
	return time.Duration((5*seconds + 20) * float64(time.Second))
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: exact-mix or approx-wire")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed sends the same traffic")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced replay and print the per-layer metrics")
	flag.StringVar(&cfg.dataRoot, "data", filepath.Join(".bench_build", "perfbench-data"), "directory for store data (keep it off tmpfs so fsync is real)")
	flag.Parse()
	cfg.trace = trace == 1

	limit := runLimit(cfg.seconds)
	timer := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	out, err := run(cfg)
	timer.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	for _, m := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}
	rep, err := json.Marshal(map[string]any{"report": out.report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(rep))
	fmt.Println(out.resultLine())
	if !out.correct || out.failed > 0 {
		os.Exit(1)
	}
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is a finished run.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	failures  []string
	metrics   []metric
	report    map[string]any
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, v, unit})
}

// resultLine renders the result object with every value at full
// precision.
func (o *outcome) resultLine() string {
	type val struct {
		Value json.Number `json:"value"`
		Unit  string      `json:"unit"`
	}
	ms := make(map[string]val, len(o.metrics))
	for _, m := range o.metrics {
		ms[m.name] = val{json.Number(strconv.FormatFloat(m.value, 'g', -1, 64)), m.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.correct, o.attempted, o.failed, ms})
	return string(b)
}

func findWorkload(name string, tiny bool) (*workload, error) {
	for _, wl := range workloads(tiny) {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (exact-mix, approx-wire)", name)
}

// run executes one benchmark run.
func run(cfg config) (*outcome, error) {
	wl, err := findWorkload(cfg.workload, cfg.tiny)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := selfTestBound(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dataRoot, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	setups, rounds := 15, 15
	if cfg.tiny {
		setups, rounds = 1, 2
	}
	perClient := int(wl.opsPerSecond*cfg.seconds*opsMargin) + wl.quality
	genStart := time.Now()
	p := newPlan(wl, cfg.seed, perClient)
	genS := time.Since(genStart).Seconds()
	// Generation's garbage is the load generator's, not the server's:
	// return it to the OS and restart the resident-set high-water mark, so
	// the peak covers set-up onward.
	debug.FreeOSMemory()
	resetPeakRSS()

	m, err := measure(wl, p, root, cfg.seconds, setups, rounds)
	if err != nil {
		return nil, err
	}
	checkStart := time.Now()
	ck := newChecker(m.hashes)
	m.check(ck)
	checkS := time.Since(checkStart).Seconds()
	out := &outcome{
		correct:   ck.failed == 0,
		attempted: m.attempted(),
		failed:    ck.failed,
		failures:  ck.messages,
	}
	out.report = m.report(cfg, p, ck, root)
	out.report["generate_s"], out.report["check_s"] = genS, checkS
	if !cfg.trace {
		m.endToEnd(out, ck)
		return out, nil
	}
	tr, err := traceRun(wl, p, m, filepath.Join(root, "replay"))
	if err != nil {
		return nil, err
	}
	m.perLayer(out, ck, tr)
	return out, nil
}
