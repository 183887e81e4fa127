package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
)

// reqFrame is one flow-mod request frame a client wrote during the timed
// window, decoded, with the ops it carried.
type reqFrame struct {
	f   frameRec
	msg *ofwire.Message
	ops []int
}

// wireView indexes a traced window's frames by connection and XID.
type wireView struct {
	reqs        []reqFrame
	opFrame     []int // op index → reqs index, -1 when unmatched
	clientReply map[xidKey]frameRec
	serverReq   map[xidKey]frameRec
	serverReply map[xidKey]frameRec
}

// frameRuleIDs lists the rule IDs a flow-mod request frame carries, in
// frame order.
func frameRuleIDs(m *ofwire.Message) []classifier.RuleID {
	switch {
	case m.FlowMod != nil:
		return []classifier.RuleID{classifier.RuleID(m.FlowMod.RuleID)}
	case m.FlowModBatch != nil:
		ids := make([]classifier.RuleID, len(m.FlowModBatch.Ops))
		for i, op := range m.FlowModBatch.Ops {
			ids[i] = classifier.RuleID(op.RuleID)
		}
		return ids
	}
	return nil
}

// indexWire decodes the window's request frames and maps every op to the
// frame that carried it: ops on one rule leave in submission order, so a
// per-rule FIFO of frames pairs them up.
func indexWire(o *outcome) (*wireView, error) {
	wv := &wireView{
		clientReply: make(map[xidKey]frameRec),
		serverReq:   make(map[xidKey]frameRec),
		serverReply: make(map[xidKey]frameRec),
	}
	var from, to int64
	if len(o.recs) > 0 {
		from = o.recs[0].submit
		for _, r := range o.recs {
			if r.done > to {
				to = r.done
			}
		}
	}
	for _, f := range o.frames {
		k := xidKey{f.sw, f.xid}
		switch {
		case f.side == sideClient && f.dir == dirWrite:
			if (f.typ != ofwire.TypeFlowMod && f.typ != ofwire.TypeFlowModBatch) || f.start < from || f.start > to {
				continue // hello, probes, set-up and drain traffic
			}
			msg, err := ofwire.ReadMessage(bytes.NewReader(f.raw))
			if err != nil {
				return nil, fmt.Errorf("decoding traced frame xid %d: %w", f.xid, err)
			}
			wv.reqs = append(wv.reqs, reqFrame{f: f, msg: msg})
		case f.side == sideClient:
			wv.clientReply[k] = f
		case f.dir == dirRead:
			wv.serverReq[k] = f
		default:
			wv.serverReply[k] = f
		}
	}
	fifo := make(map[ruleKey][]int)
	for ri, rq := range wv.reqs {
		for _, id := range frameRuleIDs(rq.msg) {
			k := ruleKey{rq.f.sw, id}
			fifo[k] = append(fifo[k], ri)
		}
	}
	wv.opFrame = make([]int, len(o.in.Ops))
	for i, op := range o.in.Ops {
		k := ruleKey{op.Switch, op.Rule.ID}
		q := fifo[k]
		if len(q) == 0 {
			wv.opFrame[i] = -1
			continue
		}
		fifo[k] = q[1:]
		wv.opFrame[i] = q[0]
		wv.reqs[q[0]].ops = append(wv.reqs[q[0]].ops, i)
	}
	return wv, nil
}

// components are per-op self times along the blocking path, in µs.
type components struct {
	flow, lag, wait, rtt, transit, server []float64
	unmatched                             int
}

// buildSpans turns each op's life into a span tree — flowmod (scheduled
// fire → completion) over gen.lag (fire → submit) and fleet (submit →
// OnResult), fleet over ofwire.client (request write → reply read), and
// that over ofwire.server (request read → reply written) — and derives
// each layer's self time from the tree.
func buildSpans(o *outcome, wv *wireView) ([]span, components) {
	var spans []span
	var c components
	type opSpans struct{ root, lag, fl, cl, sv int32 }
	idx := make([]opSpans, len(o.recs))
	add := func(s span) int32 {
		spans = append(spans, s)
		return int32(len(spans) - 1)
	}
	for i, r := range o.recs {
		rule, seq := uint64(o.in.Ops[i].Rule.ID), uint32(i)
		ix := opSpans{-1, -1, -1, -1, -1}
		ix.root = add(span{Name: "flowmod", Start: r.due, End: r.done, Parent: -1, Rule: rule, Seq: seq})
		ix.lag = add(span{Name: "gen.lag", Start: r.due, End: r.submit, Parent: ix.root, Rule: rule, Seq: seq})
		ix.fl = add(span{Name: "fleet", Start: r.submit, End: r.done, Parent: ix.root, Rule: rule, Seq: seq})
		if fi := wv.opFrame[i]; fi >= 0 {
			f := wv.reqs[fi].f
			k := xidKey{f.sw, f.xid}
			rep, ok1 := wv.clientReply[k]
			sreq, ok2 := wv.serverReq[k]
			srep, ok3 := wv.serverReply[k]
			if ok1 && ok2 && ok3 {
				ix.cl = add(span{Name: "ofwire.client", Start: f.start, End: rep.end, Parent: ix.fl, Rule: rule, Seq: seq, XID: f.xid})
				ix.sv = add(span{Name: "ofwire.server", Start: sreq.end, End: srep.end, Parent: ix.cl, Rule: rule, Seq: seq, XID: f.xid})
			}
		}
		idx[i] = ix
	}
	self := selfTimes(spans)
	for _, ix := range idx {
		if ix.cl < 0 {
			c.unmatched++
			continue
		}
		c.flow = append(c.flow, float64(spans[ix.root].End-spans[ix.root].Start)/1e3)
		c.lag = append(c.lag, float64(self[ix.lag])/1e3)
		c.wait = append(c.wait, float64(self[ix.fl])/1e3)
		c.rtt = append(c.rtt, float64(spans[ix.cl].End-spans[ix.cl].Start)/1e3)
		c.transit = append(c.transit, float64(self[ix.cl])/1e3)
		c.server = append(c.server, float64(self[ix.sv])/1e3)
	}
	return spans, c
}

// ladderFrame is one request frame of switch 0 as the agent saw it: the
// virtual time the server applied it at and the ops it carried.
type ladderFrame struct {
	now   time.Duration
	batch bool
	ops   []schedOp
	req   []byte // raw request frame
	rep   []byte // raw reply frame
}

// ladderFrames extracts switch 0's op stream from the traced window, in
// wire order, with each frame's virtual timestamp: the server maps wall
// time onto the agent clock as time since its start.
func ladderFrames(o *outcome, wv *wireView, base time.Time) []ladderFrame {
	var out []ladderFrame
	origin := o.starts[0].Sub(base)
	for _, rq := range wv.reqs {
		if rq.f.sw != 0 || len(rq.ops) == 0 {
			continue
		}
		k := xidKey{rq.f.sw, rq.f.xid}
		lf := ladderFrame{
			now:   time.Duration(wv.serverReq[k].end) - origin,
			batch: rq.msg.FlowModBatch != nil,
			req:   rq.f.raw,
			rep:   wv.clientReply[k].raw,
		}
		for _, i := range rq.ops {
			lf.ops = append(lf.ops, o.in.Ops[i])
		}
		out = append(out, lf)
	}
	return out
}

// ladder times each layer in isolation by replaying switch 0's op stream,
// with the traced run's virtual timestamps, directly against the codec,
// the agent and the classifier index.
type ladder struct {
	in     *inputs
	frames []ladderFrame
	m      map[string]float64
	errs   int // replayed ops the agent rejected
	// opUS is every per-op agent call's wall time, all kinds together.
	opUS []float64
}

func newLadderAgent(in *inputs) (*core.Agent, error) {
	return core.New(tcam.NewSwitch("ladder", in.Spec.Profile), in.agentConfig())
}

// ticker fires the agent's Rule Manager ticks due up to now, as the
// server's tick loop would have.
type ticker struct {
	next time.Duration
	us   []float64
}

func (t *ticker) upTo(a *core.Agent, now time.Duration, timed bool) {
	for t.next <= now {
		t0 := time.Now()
		a.Tick(t.next)
		if timed {
			t.us = append(t.us, us(time.Since(t0)))
		}
		t.next += tickInterval
	}
}

func applyOne(a *core.Agent, now time.Duration, op schedOp) error {
	var err error
	switch op.Kind {
	case opInsert:
		_, err = a.Insert(now, op.Rule)
	case opModify:
		_, err = a.Modify(now, op.Rule)
	case opDelete:
		_, err = a.Delete(now, op.Rule.ID)
	}
	return err
}

func batchOps(ops []schedOp) []core.BatchOp {
	out := make([]core.BatchOp, len(ops))
	for i, op := range ops {
		kind := map[opKind]core.BatchKind{opInsert: core.BatchInsert, opModify: core.BatchModify, opDelete: core.BatchDelete}[op.Kind]
		out[i] = core.BatchOp{Kind: kind, Rule: op.Rule}
	}
	return out
}

// applyFrame applies a frame the way the server does: a batch frame
// through ApplyBatch, a single flow-mod through the per-op entry point.
// The per-op replay counts rejected ops; this one only sets up state.
func applyFrame(a *core.Agent, lf ladderFrame, out []core.BatchResult) []core.BatchResult {
	if lf.batch {
		return a.ApplyBatch(lf.now, batchOps(lf.ops), out)
	}
	for _, op := range lf.ops {
		applyOne(a, lf.now, op) //nolint:errcheck // counted by perOp
	}
	return out
}

// perOp replays every op through Insert/Delete/Modify, timing each call
// and each Tick.
func (l *ladder) perOp() error {
	a, err := newLadderAgent(l.in)
	if err != nil {
		return err
	}
	var tk ticker
	byKind := map[opKind][]float64{}
	for _, lf := range l.frames {
		tk.upTo(a, lf.now, true)
		for _, op := range lf.ops {
			t0 := time.Now()
			err := applyOne(a, lf.now, op)
			d := us(time.Since(t0))
			if err != nil {
				l.errs++
			}
			byKind[op.Kind] = append(byKind[op.Kind], d)
			l.opUS = append(l.opUS, d)
		}
	}
	l.m["core.insert_p50_us"] = quantile(byKind[opInsert], 0.5)
	l.m["core.insert_p99_us"] = quantile(byKind[opInsert], 0.99)
	l.m["core.delete_p50_us"] = quantile(byKind[opDelete], 0.5)
	l.m["core.modify_p50_us"] = quantile(byKind[opModify], 0.5)
	l.m["core.tick_p99_us"] = quantile(tk.us, 0.99)
	return nil
}

// batched replays every frame through ApplyBatch, timing each call.
func (l *ladder) batched() error {
	a, err := newLadderAgent(l.in)
	if err != nil {
		return err
	}
	var tk ticker
	var out []core.BatchResult
	var batchUS []float64
	for _, lf := range l.frames {
		tk.upTo(a, lf.now, false)
		t0 := time.Now()
		out = a.ApplyBatch(lf.now, batchOps(lf.ops), out)
		batchUS = append(batchUS, us(time.Since(t0)))
	}
	l.m["core.apply_batch_p50_us"] = quantile(batchUS, 0.5)
	return nil
}

// churnBurst is the number of lookups timed right after a write, and
// churnSamples about how many such bursts a replay times.
const (
	churnBurst   = 64
	churnSamples = 2000
)

// lookups replays the frames as the server applies them and, after every
// stride-th frame, times a churnBurst of lookups (reads that meet a
// just-invalidated snapshot); then it times lookups on the quiesced
// end-of-window table, and the classifier index over the same live rules.
func (l *ladder) lookups() error {
	a, err := newLadderAgent(l.in)
	if err != nil {
		return err
	}
	probe := l.in.Probe
	var tk ticker
	var out []core.BatchResult
	var churnNS []float64
	k := 0
	stride := max(1, len(l.frames)/churnSamples)
	for i, lf := range l.frames {
		tk.upTo(a, lf.now, false)
		out = applyFrame(a, lf, out)
		if i%stride != 0 {
			continue
		}
		t0 := time.Now()
		for j := 0; j < churnBurst; j++ {
			p := probe[k]
			k = (k + 1) % len(probe)
			a.Lookup(p.Dst, p.Src)
		}
		churnNS = append(churnNS, float64(time.Since(t0))/churnBurst)
	}
	l.m["core.lookup_churn_ns"] = median(churnNS)
	l.m["core.lookup_quiesced_ns"] = timeLookups(probe, func(p packet) { a.Lookup(p.Dst, p.Src) })

	rules := newModel(0).applyAll(l.in.Ops).firstMatch()
	var buildUS []float64
	var ix *classifier.RuleIndex
	for i := 0; i < 21; i++ {
		cp := append([]classifier.Rule(nil), rules...)
		t0 := time.Now()
		ix = classifier.NewRuleIndex(cp)
		buildUS = append(buildUS, us(time.Since(t0)))
	}
	l.m["classifier.index_build_us"] = median(buildUS)
	l.m["classifier.index_lookup_ns"] = timeLookups(probe, func(p packet) { ix.Lookup(p.Dst, p.Src) })
	return nil
}

// timeLookups is the median, over 9 passes of the whole probe trace, of
// the mean ns per lookup.
func timeLookups(probe []packet, f func(packet)) float64 {
	var passes []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		for _, p := range probe {
			f(p)
		}
		passes = append(passes, float64(time.Since(t0))/float64(len(probe)))
	}
	return median(passes)
}

// codec times decoding and encoding the traced request and reply frames,
// per op carried: the median of 5 passes.
func (l *ladder) codec() error {
	var enc, dec []float64
	ops := 0
	for _, lf := range l.frames {
		ops += len(lf.ops)
	}
	var buf bytes.Buffer
	for pass := 0; pass < 5; pass++ {
		var e, d time.Duration
		for _, lf := range l.frames {
			if lf.req == nil || lf.rep == nil {
				continue
			}
			t0 := time.Now()
			req, err1 := ofwire.ReadMessage(bytes.NewReader(lf.req))
			rep, err2 := ofwire.ReadMessage(bytes.NewReader(lf.rep))
			d += time.Since(t0)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("ladder codec: %w", errors.Join(err1, err2))
			}
			buf.Reset()
			t0 = time.Now()
			err1 = ofwire.WriteMessage(&buf, req)
			err2 = ofwire.WriteMessage(&buf, rep)
			e += time.Since(t0)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("ladder codec: %w", errors.Join(err1, err2))
			}
		}
		enc = append(enc, ratio(float64(e), float64(ops)))
		dec = append(dec, ratio(float64(d), float64(ops)))
	}
	l.m["ofwire.encode_ns_per_op"] = median(enc)
	l.m["ofwire.decode_ns_per_op"] = median(dec)
	return nil
}

// echo times Client.Echo round trips to an idle in-process agent server.
func (l *ladder) echo() error {
	srv, err := ofwire.NewAgentServer("echo", l.in.Spec.Profile, core.Config{Guarantee: l.in.Spec.Guarantee})
	if err != nil {
		return err
	}
	srv.Logf = func(string, ...interface{}) {} // teardown resets are expected
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lis) //nolint:errcheck // returns nil once closed
	}()
	defer func() {
		srv.Close() //nolint:errcheck // teardown
		<-served
	}()
	c, err := ofwire.Dial(lis.Addr().String(), 2*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	payload := []byte("perfbench")
	var rtt []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if _, err := c.Echo(payload); err != nil {
			return err
		}
		rtt = append(rtt, us(time.Since(t0)))
	}
	l.m["ofwire.echo_rtt_p50_us"] = median(rtt)
	return nil
}

// runLadder runs every rung and returns its metrics.
func runLadder(in *inputs, frames []ladderFrame) (*ladder, error) {
	l := &ladder{in: in, frames: frames, m: make(map[string]float64)}
	for _, rung := range []func() error{l.codec, l.echo, l.perOp, l.batched, l.lookups} {
		if err := rung(); err != nil {
			return nil, err
		}
	}
	return l, nil
}
