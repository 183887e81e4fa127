package main

import (
	"time"

	"hermes/internal/core"
)

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer lists match BENCHMARK.json entry for entry.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flowmod_p50_ms", "ms"},
	{"cpu_us_per_flowmod", "us"},
	{"guaranteed_frac", "share"},
	{"modeled_insert_p99_us", "us"},
	{"lookup_mlps", "M/s"},
	{"live_heap_mb", "MB"},
}

// The two tail metrics repeat too loosely run to run to be gated (see
// README.md); the traced run reports them with the per-layer metrics.
var tails = []metricDef{
	{"flowmod_p99_ms", "ms"},
	{"lookup_p99_ns", "ns"},
}

var perLayer = append(append([]metricDef(nil), tails...), []metricDef{
	{"gen.lag_p50_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"fleet.wait_p50_us", "us"},
	{"fleet.wait_p99_us", "us"},
	{"fleet.ops_per_frame", "count"},
	{"ofwire.rtt_p50_us", "us"},
	{"ofwire.server_p50_us", "us"},
	{"ofwire.transit_p50_us", "us"},
	{"ofwire.bytes_per_op", "bytes"},
	{"ofwire.encode_ns_per_op", "ns"},
	{"ofwire.decode_ns_per_op", "ns"},
	{"ofwire.echo_rtt_p50_us", "us"},
	{"core.insert_p50_us", "us"},
	{"core.insert_p99_us", "us"},
	{"core.delete_p50_us", "us"},
	{"core.modify_p50_us", "us"},
	{"core.apply_batch_p50_us", "us"},
	{"core.tick_p99_us", "us"},
	{"core.lookup_quiesced_ns", "ns"},
	{"core.lookup_churn_ns", "ns"},
	{"core.partitions_per_insert", "count"},
	{"core.rules_cut", "count"},
	{"core.rate_limited_frac", "share"},
	{"core.bypass_frac", "share"},
	{"core.migrations", "count"},
	{"core.migrated_rules", "count"},
	{"classifier.index_build_us", "us"},
	{"classifier.index_lookup_ns", "ns"},
	{"tcam.shifts_per_insert", "count"},
	{"guarantee_violation_frac", "share"},
	{"flowmod_failed_frac", "share"},
	{"ladder.unaccounted_us", "us"},
	{"trace.overhead_us", "us"},
}...)

// flowStats are the flow-mod outcome figures of one window.
type flowStats struct {
	latMS      []float64 // completion − scheduled fire time, per op
	dueAt      []int64   // scheduled fire time, ns after the first op's
	modeledUS  []float64 // reply LatencyNS of guaranteed inserts (virtual time)
	inserts    int
	guaranteed int
	violations int
	failed     int
}

func flowOutcome(o *outcome) flowStats {
	var fs flowStats
	for i, r := range o.recs {
		fs.latMS = append(fs.latMS, float64(r.done-r.due)/1e6)
		fs.dueAt = append(fs.dueAt, r.due-o.recs[0].due)
		if r.err != nil {
			fs.failed++
			continue
		}
		if o.in.Ops[i].Kind == opInsert {
			fs.inserts++
			if r.res.Guaranteed {
				fs.guaranteed++
				fs.modeledUS = append(fs.modeledUS, float64(r.res.Latency)/1e3)
				if r.res.Violation {
					fs.violations++
				}
			}
		}
	}
	return fs
}

// The timing metrics split a run's samples into equal slices by time and
// report a statistic over the slices, so one disturbed slice moves a
// metric by one slice, not by its tail. The first slices are warm-up —
// the tables are still filling towards their steady occupancy, the reader
// is still warming its caches — and are left out. The flow-mod window is
// cut into quarter-second slices at the benchmark's 30 s runs, the reader
// into twentieths.
const (
	flowSlices, flowWarmup     = 120, 8
	readerSlices, readerWarmup = 20, 1
)

// sliceQuantile is the quantile over slices that flowmod_p50_ms and
// lookup_mlps are read at: the faster tenth of the per-slice median
// latencies, the slower tenth of the per-slice throughputs. The host these
// runs share sets it: its state changes every second or so and holds for
// seconds to minutes.
//
// Per-op dispatch spends almost all of a flow-mod's latency on goroutine
// wakes across CPUs and loopback syscalls (the agent call and codec take
// about 3 of 140 us), and each wake costs more while a neighbour holds the
// host's CPU; contention only ever adds, and in some runs it holds for
// most of the window. The faster tenth is the latency of the calm
// stretches: it moves with every change to the program's own path, and a
// run stays comparable when most of it runs beside a busy neighbour.
//
// The lookup reader is bimodal instead: while the host is quiet, bursts of
// a quarter second to two seconds run it up to 60% faster, and their share
// of a run swings from 5% to 75%; while it is busy there are none. The
// slower tenth is the state every run sees.
const sliceQuantile = 0.1

// sliced groups values into n slices by their timestamp (0 ≤ at ≤ span)
// and drops the first warm.
func sliced(values []float64, at []int64, span int64, n, warm int) [][]float64 {
	out := make([][]float64, n)
	for i, v := range values {
		b := min(int(at[i]*int64(n)/(span+1)), n-1)
		out[b] = append(out[b], v)
	}
	return out[warm:]
}

// quantileOver is the q-quantile over slices of f(slice), skipping empty
// slices.
func quantileOver(slices [][]float64, q float64, f func([]float64) float64) float64 {
	var per []float64
	for _, s := range slices {
		if len(s) > 0 {
			per = append(per, f(s))
		}
	}
	return quantile(per, q)
}

// medianOver is the median over slices of f(slice), skipping empty slices.
func medianOver(slices [][]float64, f func([]float64) float64) float64 {
	return quantileOver(slices, 0.5, f)
}

// endToEndMetrics computes the end-to-end metrics, and the tail metrics,
// of an untraced window.
func endToEndMetrics(o *outcome, setupS []float64) map[string]float64 {
	fs := flowOutcome(o)
	var span int64
	for _, at := range fs.dueAt {
		span = max(span, at)
	}
	lat := sliced(fs.latMS, fs.dueAt, span, flowSlices, flowWarmup)
	rd := o.reader
	batches := sliced(rd.batchNS, rd.batchAt, int64(rd.wall), readerSlices, readerWarmup)
	return map[string]float64{
		"setup_s":               median(setupS),
		"flowmod_p50_ms":        quantileOver(lat, sliceQuantile, median),
		"flowmod_p99_ms":        medianOver(lat, func(v []float64) float64 { return quantile(v, 0.99) }),
		"cpu_us_per_flowmod":    ratio(float64(o.cpu)/1e3, float64(len(o.recs))),
		"guaranteed_frac":       ratio(float64(fs.guaranteed), float64(fs.inserts)),
		"modeled_insert_p99_us": quantile(fs.modeledUS, 0.99),
		// Each slice's throughput is read at its median batch: a batch
		// that meets a snapshot rebuild or a preemption is an outlier the
		// tail metric reports. ns per lookup at the 1−q quantile over
		// slices is throughput at the q quantile.
		"lookup_mlps":   ratio(1e3, quantileOver(batches, 1-sliceQuantile, median)),
		"lookup_p99_ns": medianOver(batches, func(v []float64) float64 { return quantile(v, 0.99) }),
		"live_heap_mb":  o.heapMB,
	}
}

// agentCounts sums the agents' counters into the core count metrics.
func agentCounts(ms []core.Metrics, m map[string]float64) {
	var sum core.Metrics
	for _, a := range ms {
		sum.Inserts += a.Inserts
		sum.PartitionsInstalled += a.PartitionsInstalled
		sum.RulesCut += a.RulesCut
		sum.RateLimited += a.RateLimited
		sum.Bypasses += a.Bypasses
		sum.Migrations += a.Migrations
		sum.MigratedRules += a.MigratedRules
	}
	ins := float64(sum.Inserts)
	m["core.partitions_per_insert"] = ratio(float64(sum.PartitionsInstalled), ins)
	m["core.rules_cut"] = float64(sum.RulesCut)
	m["core.rate_limited_frac"] = ratio(float64(sum.RateLimited), ins)
	m["core.bypass_frac"] = ratio(float64(sum.Bypasses), ins)
	m["core.migrations"] = float64(sum.Migrations)
	m["core.migrated_rules"] = float64(sum.MigratedRules)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
