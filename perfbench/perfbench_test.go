package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/ofwire"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		a, err := generate(s, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, 8, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 twice gave digests %x and %x", s.Name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", s.Name, a.digest())
		}
		if len(a.Ops) == 0 || len(a.Probe) != probePackets {
			t.Errorf("%s: %d ops, %d probe packets", s.Name, len(a.Ops), len(a.Probe))
		}
	}
}

// TestSlicedMedians checks the timing metrics' estimator: values split
// into slices by timestamp, the warm-up slices dropped, and a quantile
// taken over the per-slice statistics.
func TestSlicedMedians(t *testing.T) {
	const n, warm = 20, 3
	var vals []float64
	var at []int64
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ { // slice i holds 10i, 10i+1, 10i+2
			vals = append(vals, float64(10*i+j))
			at = append(at, int64(100*i+j))
		}
	}
	slices := sliced(vals, at, 100*n-1, n, warm)
	if len(slices) != n-warm || len(slices[0]) != 3 || slices[0][0] != 10*warm {
		t.Fatalf("slices %v", slices)
	}
	// The per-slice medians are 10w+1, ..., 10(n-1)+1.
	var per []float64
	for i := warm; i < n; i++ {
		per = append(per, float64(10*i+1))
	}
	if got, want := medianOver(slices, median), median(per); got != want {
		t.Errorf("median over slices %v, want %v", got, want)
	}
	if got, want := quantileOver(slices, sliceQuantile, median), quantile(per, sliceQuantile); got != want {
		t.Errorf("quantile over slices %v, want %v", got, want)
	}
	if quantile(nil, 0.5) != 0 || medianOver(make([][]float64, 3), median) != 0 {
		t.Error("empty samples should give 0")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "c", Start: 90, End: 130, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestSpansTileFlowMod checks the span tree of one op: the self times of
// gen.lag, fleet, ofwire.client and ofwire.server sum to the flow-mod span.
func TestSpansTileFlowMod(t *testing.T) {
	in := &inputs{Ops: []schedOp{{Kind: opInsert, Rule: classifier.Rule{ID: 9}}}}
	o := &outcome{in: in, recs: []opRec{{due: 1000, submit: 1050, done: 2000}}}
	wv := &wireView{
		reqs:        []reqFrame{{f: frameRec{xid: 3, start: 1200}}},
		opFrame:     []int{0},
		clientReply: map[xidKey]frameRec{{0, 3}: {end: 1800}},
		serverReq:   map[xidKey]frameRec{{0, 3}: {end: 1400}},
		serverReply: map[xidKey]frameRec{{0, 3}: {end: 1500}},
	}
	spans, c := buildSpans(o, wv)
	if len(spans) != 5 || c.unmatched != 0 {
		t.Fatalf("%d spans, %d unmatched", len(spans), c.unmatched)
	}
	parts := medianBand(c)
	sum := 0.0
	for _, p := range parts {
		sum += p.v
	}
	if want := []float64{0.05, 0.35, 0.5, 0.1}; parts[0].v != want[0] || parts[1].v != want[1] || parts[2].v != want[2] || parts[3].v != want[3] {
		t.Errorf("components %+v, want lag/wait/transit/server %v µs", parts, want)
	}
	if math.Abs(sum-c.flow[0]) > 1e-9 {
		t.Errorf("components sum to %v µs, flow-mod span is %v µs", sum, c.flow[0])
	}
}

func TestFrameParserSplitsStream(t *testing.T) {
	var stream []byte
	for xid := uint32(1); xid <= 3; xid++ {
		var b strings.Builder
		m := &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeFlowMod, XID: xid},
			FlowMod: ofwire.FlowModFromRule(ofwire.FlowAdd, classifier.Rule{ID: classifier.RuleID(xid)})}
		if err := ofwire.WriteMessage(&b, m); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b.String()...)
	}
	var p frameParser
	var got []frameRec
	for i := 0; i < len(stream); i += 5 { // ragged chunks across frame edges
		end := min(i+5, len(stream))
		p.feed(stream[i:end], int64(i), int64(end), true, func(f frameRec) { got = append(got, f) })
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d frames, want 3", len(got))
	}
	for i, f := range got {
		m, err := ofwire.ReadMessage(strings.NewReader(string(f.raw)))
		if err != nil || f.xid != uint32(i+1) || m.FlowMod.RuleID != uint64(i+1) {
			t.Errorf("frame %d: xid %d, err %v", i, f.xid, err)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric and workload
// lists in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, specs[i].Name)
		}
	}
}

// smallRun is a short, light run of a workload for the check tests.
func smallRun(t *testing.T, name string) *inputs {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc := *s
	sc.InsertFactor /= 4
	sc.InsertRate /= 8
	in, err := generate(&sc, 3, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestHealthyRunPassesChecks(t *testing.T) {
	for _, name := range []string{"guaranteed-steady", "overload-batch"} {
		base := time.Now()
		sys, err := startSystem(smallRun(t, name), base, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, err := runWindow(sys, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wv, err := indexWire(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, c := buildSpans(o, wv); c.unmatched != 0 {
			t.Errorf("%s: %d ops matched no frame", name, c.unmatched)
		}
	}
}

// dropReplyConn loses the n-th flow-mod reply frame it would deliver.
type dropReplyConn struct {
	net.Conn
	n, seen int
	out     []byte
}

func (c *dropReplyConn) Read(p []byte) (int, error) {
	for len(c.out) == 0 {
		hdr := make([]byte, 8)
		if _, err := io.ReadFull(c.Conn, hdr); err != nil {
			return 0, err
		}
		frame := make([]byte, binary.BigEndian.Uint16(hdr[2:4]))
		copy(frame, hdr)
		if _, err := io.ReadFull(c.Conn, frame[8:]); err != nil {
			return 0, err
		}
		if ofwire.MsgType(hdr[1]) == ofwire.TypeFlowModReply {
			if c.seen++; c.seen == c.n {
				continue
			}
		}
		c.out = frame
	}
	n := copy(p, c.out)
	c.out = c.out[n:]
	return n, nil
}

func TestDroppedReplyFailsChecks(t *testing.T) {
	base := time.Now()
	var mu sync.Mutex
	sys, err := startSystem(smallRun(t, "guaranteed-steady"), base, false, func(c net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		return &dropReplyConn{Conn: c, n: 50}
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.await = 2 * time.Second
	// The op never completes, or fails at the fleet's request deadline.
	if _, err := runWindow(sys, base); err == nil {
		t.Fatal("a dropped reply passed the checks")
	} else {
		t.Log(err)
	}
}

func TestWrongLookupFailsChecks(t *testing.T) {
	in := smallRun(t, "overload-batch")
	base := time.Now()
	sys, err := startSystem(in, base, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	m := newModel(0)
	var r classifier.Rule
	for _, op := range in.Ops {
		if op.Switch == 0 && op.Kind == opInsert {
			r = op.Rule
			break
		}
	}
	if res := sys.fl.Insert(sys.ids[0], r); res.Err != nil {
		t.Fatal(res.Err)
	}
	// The reference believes the rule forwards elsewhere.
	wrong := r
	wrong.Action.Port++
	if err := m.apply(schedOp{Kind: opInsert, Rule: wrong}); err != nil {
		t.Fatal(err)
	}
	if err := checkLookups(sys.agent(0), m, in.Seed); err == nil {
		t.Fatal("a lookup answering the wrong rule passed the checks")
	}
	// A rule the reference never drains stays behind.
	if err := sys.drain([]*model{newModel(0), newModel(1)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.checkDrained(); err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Fatalf("a leftover rule passed the end-state check: %v", err)
	}
}
