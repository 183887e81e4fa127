package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"hermes/internal/core"
	"hermes/internal/tcam"
)

// probeRun is how long flow-mod workloads read the end-of-window table:
// long enough that its slices span several of the host's states (see
// sliceQuantile).
const probeRun = 10 * time.Second

// setUp builds the inputs and the deployment n times, tearing down all but
// the last, and returns the last with every set-up time in seconds.
func setUp(s *spec, seed int64, window time.Duration, base time.Time, traced bool, n int) (*system, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		in, err := generate(s, seed, window)
		if err != nil {
			return nil, nil, err
		}
		sys, err := startSystem(in, base, traced, nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return sys, times, nil
		}
		sys.close()
	}
	return nil, nil, errors.New("no set-up requested")
}

// outcome is the raw record of one timed window.
type outcome struct {
	in     *inputs
	recs   []opRec
	cpu    time.Duration // process CPU over the timed window
	reader readerResult
	heapMB float64
	agents []core.Metrics // per switch, at the end of the window
	tstats tcam.TableStats
	frames []frameRec // traced windows only
	starts []time.Time
}

// runWindow replays the inputs open-loop on a set-up system, then checks
// every output and tears the system down. Any failed check is an error.
func runWindow(sys *system, base time.Time) (*outcome, error) {
	defer sys.close()
	in := sys.in
	out := &outcome{in: in, starts: sys.starts}
	sys.col.armed.Store(true)
	cpu0 := processCPU()
	start := time.Now().Add(5 * time.Millisecond)
	werr := sys.pace(start)
	if werr == nil {
		werr = sys.col.await(sys.await)
	}
	out.cpu = processCPU() - cpu0
	sys.col.armed.Store(false)
	if werr != nil {
		return nil, werr
	}
	out.recs = append([]opRec(nil), sys.col.recs...)
	// Read the end-of-window table on switch 0 once its Rule Manager has
	// moved the shadow table into main, as ModQoSConfig does: whether the
	// window's last predictive migration emptied the shadow is a matter of
	// timing, and a non-empty shadow adds a third to every lookup.
	a0 := sys.agent(0)
	vnow := func() time.Duration { return time.Since(sys.starts[0]) }
	for settle := time.Now(); time.Since(settle) < time.Second; time.Sleep(tickInterval) {
		if !a0.Migrating(vnow()) && (a0.ShadowOccupancy() == 0 || a0.ForceMigration(vnow()) == 0) {
			break
		}
	}
	time.Sleep(2 * tickInterval) // the tick that applies the migration's last steps
	if !sys.tap.traced {
		// The lookup metrics come from untraced runs only.
		out.reader = readFor(a0, in.Probe, probeRun)
	}

	models, err := checkOutcomes(in, sys.col)
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	for sw, m := range models {
		if err := checkLookups(sys.agent(sw), m, in.Seed); err != nil {
			return nil, fmt.Errorf("output check: %w", err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapMB = float64(ms.HeapAlloc) / 1e6
	for _, srv := range sys.srvs {
		out.agents = append(out.agents, srv.MetricsSnapshot())
	}
	if err := sys.drain(models); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	if err := sys.checkDrained(); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	out.frames = sys.tap.snapshot()
	sys.close()
	out.tstats = sys.tableStats()
	return out, nil
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// lookupBatch is the number of lookups timed together.
const lookupBatch = 1024

// readerResult is a closed-loop lookup run: each batch's mean ns per
// lookup and its end time.
type readerResult struct {
	wall    time.Duration
	batchNS []float64 // mean ns per lookup of each lookupBatch batch
	batchAt []int64   // each batch's end, ns since the run started
}

// readFor calls Agent.Lookup in a closed loop over the probe trace for d.
func readFor(a *core.Agent, probe []packet, d time.Duration) readerResult {
	var res readerResult
	t0 := time.Now()
	for k := 0; res.wall < d; res.wall = time.Since(t0) {
		bt := time.Now()
		for j := 0; j < lookupBatch; j++ {
			p := probe[k]
			if k++; k == len(probe) {
				k = 0
			}
			a.Lookup(p.Dst, p.Src)
		}
		end := time.Now()
		res.batchNS = append(res.batchNS, float64(end.Sub(bt))/lookupBatch)
		res.batchAt = append(res.batchAt, int64(end.Sub(t0)))
	}
	return res
}
