package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// step is one rung of the offered-rate staircase.
type step struct {
	Factor       float64 `json:"rate_factor"`
	OfferedPerS  float64 `json:"offered_ops_per_s"`
	AchievedPerS float64 `json:"achieved_ops_per_s"`
	InsertsPerS  float64 `json:"offered_inserts_per_s"`
	LagP50US     float64 `json:"gen_lag_p50_us"`
	LagP99US     float64 `json:"gen_lag_p99_us"`
	LagMaxUS     float64 `json:"gen_lag_max_us"`
	P50MS        float64 `json:"flowmod_p50_ms"`
	P99MS        float64 `json:"flowmod_p99_ms"`
	FailedFrac   float64 `json:"failed_frac"`
	Saturated    bool    `json:"saturated"`
}

// runStaircase replays a flow-mod workload at each rate multiplier (the
// spec's insert rate × factor) and prints one JSON line per step —
// achieved rate, generator lag and latency — and then the knee: the
// highest step that is not saturated (achieved ≥ 97% of offered, no failed
// op). It is calibration, not a gated metric, and skips the end-state
// checks, since past the knee ops may fail.
func runStaircase(s *spec, seed int64, window time.Duration, factors string, w io.Writer) error {
	fs, err := parseFactors(factors)
	if err != nil {
		return err
	}
	var knee *step
	for _, f := range fs {
		sc := *s
		sc.InsertFactor *= f
		sc.InsertRate *= f
		st, err := staircaseStep(&sc, seed, window)
		if err != nil {
			return err
		}
		st.Factor = f
		b, err := json.Marshal(st)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
		if !st.Saturated && (knee == nil || f > knee.Factor) {
			knee = &st
		}
	}
	if knee == nil {
		return fmt.Errorf("%s: every step saturated", s.Name)
	}
	b, err := json.Marshal(map[string]any{"workload": s.Name, "knee": knee})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

func staircaseStep(s *spec, seed int64, window time.Duration) (step, error) {
	base := time.Now()
	sys, _, err := setUp(s, seed, window, base, false, 1)
	if err != nil {
		return step{}, err
	}
	defer sys.close()
	sys.col.armed.Store(true)
	if err := sys.pace(time.Now().Add(5 * time.Millisecond)); err != nil {
		return step{}, err
	}
	sys.col.await(30 * time.Second) //nolint:errcheck // unfinished ops count as failed below
	sys.col.armed.Store(false)
	sys.col.mu.Lock()
	defer sys.col.mu.Unlock()
	var st step
	var lat, lag []float64
	var first, last int64 = -1, 0
	ok, failed := 0, 0
	for _, r := range sys.col.recs {
		if first < 0 {
			first = r.due
		}
		lag = append(lag, float64(r.submit-r.due)/1e3)
		if r.finished == 0 || r.err != nil {
			failed++
			continue
		}
		ok++
		lat = append(lat, float64(r.done-r.due)/1e6)
		last = max(last, r.done)
	}
	ins, _, _ := sys.in.counts()
	st.OfferedPerS = float64(len(sys.col.recs)) / window.Seconds()
	st.InsertsPerS = float64(ins) / window.Seconds()
	st.AchievedPerS = ratio(float64(ok), float64(last-first)/1e9)
	st.LagP50US, st.LagP99US, st.LagMaxUS = quantile(lag, 0.5), quantile(lag, 0.99), quantile(lag, 1)
	st.P50MS, st.P99MS = quantile(lat, 0.5), quantile(lat, 0.99)
	st.FailedFrac = ratio(float64(failed), float64(len(sys.col.recs)))
	st.Saturated = failed > 0 || st.AchievedPerS < 0.97*st.OfferedPerS
	return st, nil
}
