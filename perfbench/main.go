// Command perfbench is the Hermes benchmark. It deploys in-process agents
// behind real loopback control connections, drives them open-loop with a
// seeded workload through the fleet's asynchronous entry points, checks
// every output, and prints each metric by name with its unit. The last
// line of standard output is a JSON result.
//
//	perfbench --workload guaranteed-steady --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the workload untraced and then traced, replays the traced op stream
// through the layer ladder, and prints the per-layer metrics. A failed
// output check prints no result and exits 1. --calibrate runs the
// offered-rate staircase of a flow-mod workload instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain is re-checked on it.
const heldOutSeed = 20171212

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 5

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: guaranteed-steady or overload-batch")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span traces")
	calibrate := fs.String("calibrate", "", "comma-separated rate multipliers: run the offered-rate staircase instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := specByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds ≥ 1 and --trace 0 or 1")
	}
	window := time.Duration(*seconds) * time.Second
	if *calibrate != "" {
		return runStaircase(s, *seed, window, *calibrate, stdout)
	}
	base := time.Now()
	var metrics map[string]float64
	var defs []metricDef
	var attempted, failed int
	var in *inputs
	if *trace == 0 {
		sys, setupS, err := setUp(s, *seed, window, base, false, setupReps)
		if err != nil {
			return err
		}
		in = sys.in
		o, err := runWindow(sys, base)
		if err != nil {
			return err
		}
		metrics, defs = endToEndMetrics(o, setupS), endToEnd
		attempted, failed = len(o.recs), flowOutcome(o).failed
	} else {
		var o *outcome
		metrics, o, err = tracedRun(s, *seed, window, base, *out, stdout)
		if err != nil {
			return err
		}
		in, defs = o.in, perLayer
		attempted, failed = len(o.recs), flowOutcome(o).failed
	}
	return report(stdout, defs, metrics, map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": os.Getenv("PERFBENCH_COMMIT"), "seed": *seed, "heldout_seed": heldOutSeed,
		"workload": s.Name, "seconds": *seconds, "trace": *trace, "params": in.params(),
	}, attempted, failed)
}

// tracedRun runs the workload untraced, then traced; builds the span trees
// and writes them out; replays the traced op stream through the ladder;
// and returns the per-layer metrics with the traced outcome.
func tracedRun(s *spec, seed int64, window time.Duration, base time.Time, outDir string, stdout io.Writer) (map[string]float64, *outcome, error) {
	sysU, _, err := setUp(s, seed, window, base, false, 1)
	if err != nil {
		return nil, nil, err
	}
	oU, err := runWindow(sysU, base)
	if err != nil {
		return nil, nil, err
	}
	sysT, _, err := setUp(s, seed, window, base, true, 1)
	if err != nil {
		return nil, nil, err
	}
	oT, err := runWindow(sysT, base)
	if err != nil {
		return nil, nil, err
	}
	wv, err := indexWire(oT)
	if err != nil {
		return nil, nil, err
	}
	spans, c := buildSpans(oT, wv)
	if err := os.MkdirAll(filepath.Join(outDir, "trace"), 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(filepath.Join(outDir, "trace", s.Name+".tsv"), spans, selfTimes(spans)); err != nil {
		return nil, nil, err
	}
	l, err := runLadder(oT.in, ladderFrames(oT, wv, base))
	if err != nil {
		return nil, nil, err
	}
	if l.errs > 0 {
		return nil, nil, fmt.Errorf("ladder: the agent rejected %d replayed ops", l.errs)
	}
	m := l.m
	e2e := endToEndMetrics(oU, nil)
	for _, d := range tails {
		m[d.Name] = e2e[d.Name]
	}
	m["gen.lag_p50_us"] = quantile(c.lag, 0.5)
	m["gen.lag_p99_us"] = quantile(c.lag, 0.99)
	m["fleet.wait_p50_us"] = quantile(c.wait, 0.5)
	m["fleet.wait_p99_us"] = quantile(c.wait, 0.99)
	m["ofwire.rtt_p50_us"] = quantile(c.rtt, 0.5)
	m["ofwire.server_p50_us"] = quantile(c.server, 0.5)
	m["ofwire.transit_p50_us"] = quantile(c.transit, 0.5)
	frames, bytesOnWire := 0, 0
	for _, rq := range wv.reqs {
		if len(rq.ops) > 0 {
			frames++
			bytesOnWire += rq.f.size + wv.clientReply[xidKey{rq.f.sw, rq.f.xid}].size
		}
	}
	matched := len(oT.recs) - c.unmatched
	m["fleet.ops_per_frame"] = ratio(float64(matched), float64(frames))
	m["ofwire.bytes_per_op"] = ratio(float64(bytesOnWire), float64(matched))
	agentCounts(oT.agents, m)
	m["tcam.shifts_per_insert"] = ratio(float64(oT.tstats.Shifts), float64(oT.tstats.Inserts))
	fsT := flowOutcome(oT)
	m["guarantee_violation_frac"] = ratio(float64(fsT.violations), float64(fsT.guaranteed))
	m["flowmod_failed_frac"] = ratio(float64(fsT.failed), float64(len(oT.recs)))

	// Ladder accounting: per op, the self times tile the flow-mod span
	// exactly (flowmod = gen.lag + fleet wait + transit + server span), so
	// the mean breakdown of the ops around the median accounts for
	// flowmod p50; the remainder is what the band mean misses.
	flowUS := quantile(c.flow, 0.5)
	untracedUS := quantile(flowOutcome(oU).latMS, 0.5) * 1e3
	parts := medianBand(c)
	sum := 0.0
	for _, p := range parts {
		sum += p.v
	}
	m["ladder.unaccounted_us"] = flowUS - sum
	m["trace.overhead_us"] = flowUS - untracedUS

	// The server span splits further into the agent call and the codec,
	// both timed by the ladder; the rest is dispatch, locking and syscalls.
	coreUS := median(l.opUS)
	codecUS := (m["ofwire.encode_ns_per_op"] + m["ofwire.decode_ns_per_op"]) / 1e3
	if s.WireBatch {
		// A batch frame's server span covers the whole batch.
		coreUS = m["core.apply_batch_p50_us"]
		codecUS *= m["fleet.ops_per_frame"]
	}
	fmt.Fprintf(stdout, "ladder: traced flowmod p50 %.1f us over %d ops (%d unmatched); untraced p50 %.1f us; tracing overhead %.1f us\n",
		flowUS, matched, c.unmatched, untracedUS, m["trace.overhead_us"])
	fmt.Fprintf(stdout, "ladder: mean self times of the ops between flowmod p45 and p55:\n")
	for _, p := range parts {
		fmt.Fprintf(stdout, "ladder:   %-16s %9.1f us  %5.1f%%\n", p.name, p.v, 100*ratio(p.v, flowUS))
	}
	fmt.Fprintf(stdout, "ladder:     server span = agent call %.1f + codec %.1f + other %.1f us (ladder medians)\n",
		coreUS, codecUS, parts[3].v-coreUS-codecUS)
	fmt.Fprintf(stdout, "ladder:   %-16s %9.1f us  %5.1f%%\n", "unaccounted", m["ladder.unaccounted_us"], 100*ratio(m["ladder.unaccounted_us"], flowUS))
	return m, oT, nil
}

type part struct {
	name string
	v    float64
}

// medianBand averages each self-time component over the ops whose
// flow-mod latency lies between its 45th and 55th percentile.
func medianBand(c components) []part {
	lo, hi := quantile(c.flow, 0.45), quantile(c.flow, 0.55)
	parts := []part{{name: "gen.lag"}, {name: "fleet.wait"}, {name: "ofwire.transit"}, {name: "ofwire.server"}}
	n := 0
	for i, f := range c.flow {
		if f < lo || f > hi {
			continue
		}
		n++
		parts[0].v += c.lag[i]
		parts[1].v += c.wait[i]
		parts[2].v += c.transit[i]
		parts[3].v += c.server[i]
	}
	for i := range parts {
		parts[i].v = ratio(parts[i].v, float64(n))
	}
	return parts
}

// report prints every metric by name with its unit, the env block, and
// the JSON result as the last line.
func report(w io.Writer, defs []metricDef, m map[string]float64, env map[string]any, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", d.Name, v, d.Unit)
		vals[d.Name] = value{v, d.Unit}
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{"correct": true, "attempted": attempted, "failed": failed, "metrics": vals})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n%s\n", envLine, res)
	return nil
}

// parseFactors parses a comma-separated list of positive numbers.
func parseFactors(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate multiplier %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
