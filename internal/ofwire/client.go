package ofwire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/obs"
)

// ErrClientClosed is returned to callers whose requests were cut off by a
// concurrent Close (as opposed to a wire failure).
var ErrClientClosed = errors.New("ofwire: client closed")

// Client is the controller side of the channel. Requests are pipelined:
// many may be in flight on the connection at once, demultiplexed back to
// their callers by transaction ID. The agent still executes them in
// arrival order (it models a single switch CPU), but the wire stays full —
// a caller never waits for another caller's round trip, only for its own
// reply. Safe for concurrent use.
type Client struct {
	conn    net.Conn
	nextXID atomic.Uint32

	// timeoutNS is the default per-request deadline (0 = none), applied by
	// the non-Ctx methods. Atomic so SetRequestTimeout is safe mid-flight.
	timeoutNS atomic.Int64

	// wmu serializes frame writes so concurrent requests cannot interleave
	// bytes on the wire. wbuf, guarded by wmu, is the reused batch encode
	// buffer: a whole TypeFlowModBatch frame is laid out in it and written
	// with a single conn.Write.
	wmu  sync.Mutex
	wbuf []byte

	// pmu guards the pending demux table and the terminal error state.
	pmu     sync.Mutex
	pending map[uint32]chan *Message
	failErr error // non-nil once the reader loop has died
	closed  bool  // Close was called

	readerDone chan struct{}

	// Optional instruments, attached via Instrument before traffic starts.
	// inflight counts XIDs awaiting replies; rtt records wall-clock
	// round-trip time per request (ns). ofwire lives on the wire, outside
	// the virtual-time domain, so wall-clock RTT is the honest measurement.
	inflight *obs.Gauge
	rtt      *obs.Histogram

	// lifecycle, when attached via SetLifecycle, receives XID-keyed
	// submitted/completed notifications for every flow-mod.
	lifecycle FlowLifecycle
}

// FlowLifecycle observes the controller-side lifecycle of flow-mod
// requests, keyed by transaction ID. FlowSubmitted fires just before the
// request enters the pipeline; FlowCompleted fires exactly once per
// submitted XID — with a decoded result on a reply, or with a non-nil
// error when the request failed, was abandoned at its deadline, or was cut
// off by a connection reset or Close. The submitted/completed pairing is
// exact even when the client dies mid-flight: every in-flight XID at the
// moment of a reset completes with that reset's error, which is how a
// load-generation ledger tells "installed" from "lost".
//
// Both callbacks run on the goroutine issuing the request. Implementations
// must be safe for concurrent use; pipelined requests complete
// concurrently.
type FlowLifecycle interface {
	FlowSubmitted(xid uint32, id classifier.RuleID)
	FlowCompleted(xid uint32, id classifier.RuleID, res FlowModResult, err error)
}

// Dial connects to an agent daemon and performs the hello exchange.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests), performs the hello exchange, and starts the response reader.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:       conn,
		pending:    make(map[uint32]chan *Message),
		readerDone: make(chan struct{}),
	}
	// Server speaks first.
	hello, err := ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ofwire: waiting for hello: %w", err)
	}
	if hello.Header.Type != TypeHello {
		conn.Close()
		return nil, fmt.Errorf("ofwire: expected hello, got %s", hello.Header.Type)
	}
	if err := WriteMessage(conn, &Message{Header: Header{Type: TypeHello}}); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// readLoop demultiplexes responses to their waiting callers by XID. On any
// read error it fails every pending caller with a descriptive error; the
// client is dead from then on.
func (c *Client) readLoop() {
	for {
		resp, err := ReadMessage(c.conn)
		if err != nil {
			c.fail(err)
			return
		}
		if resp.Header.Type == TypeHello {
			continue // tolerate late hellos
		}
		c.pmu.Lock()
		ch, ok := c.pending[resp.Header.XID]
		if ok {
			delete(c.pending, resp.Header.XID)
		}
		c.pmu.Unlock()
		if !ok {
			// A reply nobody waits for (e.g. the caller errored out while
			// writing). Drop it; the XID space never reuses live IDs.
			continue
		}
		ch <- resp
	}
}

// fail marks the client dead and wakes every pending caller.
func (c *Client) fail(cause error) {
	c.pmu.Lock()
	if c.failErr == nil {
		if c.closed {
			c.failErr = ErrClientClosed
		} else {
			c.failErr = fmt.Errorf("ofwire: connection failed: %w", cause)
		}
	}
	for xid, ch := range c.pending {
		delete(c.pending, xid)
		close(ch) // a closed channel signals "read c.failErr"
	}
	c.pmu.Unlock()
	c.conn.Close()
	close(c.readerDone)
}

// Err returns the terminal connection error, or nil while the client is
// healthy.
func (c *Client) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.failErr
}

// Close tears down the connection and fails any in-flight requests with
// ErrClientClosed. It is safe to call concurrently and repeatedly, from
// any goroutine, including while requests are blocked.
func (c *Client) Close() error {
	c.pmu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	c.pmu.Unlock()
	err := c.conn.Close()
	if !alreadyClosed {
		// Wait for the reader to observe the close and fail the pending
		// callers, so Close has release semantics.
		<-c.readerDone
	}
	return err
}

// SetRequestTimeout installs a default per-request deadline applied by
// every non-Ctx method (Insert, Barrier, Echo, ...). Zero disables the
// default. Safe to call concurrently with in-flight requests; it affects
// only requests issued afterwards.
func (c *Client) SetRequestTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeoutNS.Store(int64(d))
}

// RequestTimeout reports the current default per-request deadline.
func (c *Client) RequestTimeout() time.Duration {
	return time.Duration(c.timeoutNS.Load())
}

// Instrument attaches observability instruments: g gauges the number of
// in-flight requests (registered XIDs awaiting replies), h records each
// request's round-trip time. Either may be nil. Attach before issuing
// requests; the fields are not synchronized against in-flight traffic.
// Reattaching the same instruments to a freshly dialed client after a
// reconnect resumes recording into the same series.
func (c *Client) Instrument(g *obs.Gauge, h *obs.Histogram) {
	c.inflight = g
	c.rtt = h
}

// SetLifecycle attaches a flow-mod lifecycle observer. Attach before
// issuing requests, like Instrument; nil detaches. As with Instrument,
// reattach the observer to the replacement client after a reconnect to
// keep one continuous ledger across resets.
func (c *Client) SetLifecycle(l FlowLifecycle) {
	c.lifecycle = l
}

// roundTrip sends one request and waits for its reply under the client's
// default deadline. Multiple roundTrips may be in flight concurrently; each
// caller blocks only on its own XID.
func (c *Client) roundTrip(req *Message) (*Message, error) {
	if d := c.RequestTimeout(); d > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return c.roundTripCtx(ctx, req)
	}
	return c.roundTripCtx(context.Background(), req)
}

// roundTripCtx sends one request and waits for its reply or the context's
// deadline, whichever comes first. A timed-out request abandons only its
// own XID: the connection and the other in-flight requests stay healthy,
// and a late reply to the abandoned XID is dropped by the read loop.
func (c *Client) roundTripCtx(ctx context.Context, req *Message) (*Message, error) {
	xid := req.Header.XID
	if xid == 0 {
		// The flow-mod path pre-assigns XIDs so lifecycle observers see the
		// ID before the request enters the pipeline; everything else gets
		// one here. Live XIDs are never reused: the counter only grows.
		xid = c.nextXID.Add(1)
		req.Header.XID = xid
	}
	ch := make(chan *Message, 1)

	var start time.Time
	if c.rtt != nil {
		start = time.Now()
	}
	if c.inflight != nil {
		c.inflight.Add(1)
		defer c.inflight.Add(-1)
	}

	c.pmu.Lock()
	if c.failErr != nil {
		err := c.failErr
		c.pmu.Unlock()
		return nil, err
	}
	if c.closed {
		c.pmu.Unlock()
		return nil, ErrClientClosed
	}
	c.pending[xid] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	err := WriteMessage(c.conn, req)
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, xid)
		if c.failErr != nil {
			err = c.failErr
		}
		c.pmu.Unlock()
		return nil, err
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, c.Err()
		}
		if c.rtt != nil {
			// Error replies completed a round trip too; only failed or
			// abandoned requests go unrecorded.
			c.rtt.RecordDuration(time.Since(start))
		}
		if resp.Header.Type == TypeError {
			return nil, resp.Error
		}
		return resp, nil
	case <-ctx.Done():
		c.pmu.Lock()
		delete(c.pending, xid)
		c.pmu.Unlock()
		// The reply channel is buffered, so a reply racing this removal
		// parks harmlessly in the channel and is garbage-collected.
		return nil, fmt.Errorf("ofwire: request %d abandoned: %w", xid, ctx.Err())
	}
}

// FlowModResult is the controller-visible outcome of a flow-mod.
type FlowModResult struct {
	Latency    time.Duration
	Path       core.InsertPath
	Guaranteed bool
	Violation  bool
	Partitions int
}

// Insert installs a rule on the remote switch.
func (c *Client) Insert(r classifier.Rule) (FlowModResult, error) {
	return c.flowMod(FlowAdd, r)
}

// InsertCtx is Insert bounded by the context's deadline/cancellation.
func (c *Client) InsertCtx(ctx context.Context, r classifier.Rule) (FlowModResult, error) {
	return c.flowModCtx(ctx, FlowAdd, r)
}

// Delete removes a rule by ID.
func (c *Client) Delete(id classifier.RuleID) (FlowModResult, error) {
	return c.flowMod(FlowDelete, classifier.Rule{ID: id})
}

// DeleteCtx is Delete bounded by the context's deadline/cancellation.
func (c *Client) DeleteCtx(ctx context.Context, id classifier.RuleID) (FlowModResult, error) {
	return c.flowModCtx(ctx, FlowDelete, classifier.Rule{ID: id})
}

// Modify updates a live rule.
func (c *Client) Modify(r classifier.Rule) (FlowModResult, error) {
	return c.flowMod(FlowModify, r)
}

// ModifyCtx is Modify bounded by the context's deadline/cancellation.
func (c *Client) ModifyCtx(ctx context.Context, r classifier.Rule) (FlowModResult, error) {
	return c.flowModCtx(ctx, FlowModify, r)
}

func (c *Client) flowMod(cmd FlowModCommand, r classifier.Rule) (FlowModResult, error) {
	req := &Message{
		Header:  Header{Type: TypeFlowMod},
		FlowMod: FlowModFromRule(cmd, r),
	}
	c.notifySubmitted(req, r.ID)
	resp, err := c.roundTrip(req)
	res, err := decodeFlowModResult(resp, err)
	c.notifyCompleted(req, r.ID, res, err)
	return res, err
}

func (c *Client) flowModCtx(ctx context.Context, cmd FlowModCommand, r classifier.Rule) (FlowModResult, error) {
	req := &Message{
		Header:  Header{Type: TypeFlowMod},
		FlowMod: FlowModFromRule(cmd, r),
	}
	c.notifySubmitted(req, r.ID)
	resp, err := c.roundTripCtx(ctx, req)
	res, err := decodeFlowModResult(resp, err)
	c.notifyCompleted(req, r.ID, res, err)
	return res, err
}

// notifySubmitted pre-assigns the request's XID and announces it to the
// lifecycle observer. No-op without an observer — the XID is then assigned
// inside roundTripCtx as usual.
func (c *Client) notifySubmitted(req *Message, id classifier.RuleID) {
	if c.lifecycle == nil {
		return
	}
	req.Header.XID = c.nextXID.Add(1)
	c.lifecycle.FlowSubmitted(req.Header.XID, id)
}

// notifyCompleted reports the request's terminal outcome. Every submitted
// flow-mod reaches here exactly once: replies, error replies, abandoned
// deadlines and connection failures all complete the XID.
func (c *Client) notifyCompleted(req *Message, id classifier.RuleID, res FlowModResult, err error) {
	if c.lifecycle == nil {
		return
	}
	c.lifecycle.FlowCompleted(req.Header.XID, id, res, err)
}

func decodeFlowModResult(resp *Message, err error) (FlowModResult, error) {
	if err != nil {
		return FlowModResult{}, err
	}
	if resp.Header.Type != TypeFlowModReply || resp.FlowModReply == nil {
		return FlowModResult{}, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	rep := resp.FlowModReply
	return FlowModResult{
		Latency:    time.Duration(rep.LatencyNS),
		Path:       core.InsertPath(rep.Path),
		Guaranteed: rep.Guaranteed,
		Violation:  rep.Violation,
		Partitions: int(rep.Partitions),
	}, nil
}

// Barrier blocks until all previously issued flow-mods have been applied,
// like OpenFlow's barrier. The agent handles frames in arrival order, so a
// barrier fences everything written to the wire before it.
func (c *Client) Barrier() error {
	return decodeBarrier(c.roundTrip(&Message{Header: Header{Type: TypeBarrierRequest}}))
}

// BarrierCtx is Barrier bounded by the context's deadline/cancellation.
func (c *Client) BarrierCtx(ctx context.Context) error {
	return decodeBarrier(c.roundTripCtx(ctx, &Message{Header: Header{Type: TypeBarrierRequest}}))
}

func decodeBarrier(resp *Message, err error) error {
	if err != nil {
		return err
	}
	if resp.Header.Type != TypeBarrierReply {
		return fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return nil
}

// Echo round-trips a payload (liveness probe).
func (c *Client) Echo(payload []byte) ([]byte, error) {
	return decodeEcho(c.roundTrip(&Message{Header: Header{Type: TypeEchoRequest}, Raw: payload}))
}

// EchoCtx is Echo bounded by the context's deadline/cancellation.
func (c *Client) EchoCtx(ctx context.Context, payload []byte) ([]byte, error) {
	return decodeEcho(c.roundTripCtx(ctx, &Message{Header: Header{Type: TypeEchoRequest}, Raw: payload}))
}

func decodeEcho(resp *Message, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if resp.Header.Type != TypeEchoReply {
		return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return resp.Raw, nil
}

// Stats fetches the agent's counters.
func (c *Client) Stats() (*Stats, error) {
	return decodeStats(c.roundTrip(&Message{Header: Header{Type: TypeStatsRequest}}))
}

// StatsCtx is Stats bounded by the context's deadline/cancellation.
func (c *Client) StatsCtx(ctx context.Context) (*Stats, error) {
	return decodeStats(c.roundTripCtx(ctx, &Message{Header: Header{Type: TypeStatsRequest}}))
}

func decodeStats(resp *Message, err error) (*Stats, error) {
	if err != nil {
		return nil, err
	}
	if resp.Header.Type != TypeStatsReply || resp.Stats == nil {
		return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return resp.Stats, nil
}

// DumpRules fetches the agent's complete controller-visible rule set,
// paging through the multipart rules dump until the agent reports no more
// entries. The result is sorted by rule ID. This is the observed view a
// level-triggered reconciler diffs its desired state against; cursor
// pagination keeps the dump coherent under concurrent flow-mods (an entry
// present for the whole dump appears exactly once).
func (c *Client) DumpRules() ([]classifier.Rule, error) {
	return c.DumpRulesCtx(context.Background())
}

// DumpRulesCtx is DumpRules bounded by the context's deadline/cancellation
// (checked per page; the client's default request timeout also applies to
// each page individually).
func (c *Client) DumpRulesCtx(ctx context.Context) ([]classifier.Rule, error) {
	return c.dumpRulesPaged(ctx, 0) // 0: let the agent pick the frame-bound page
}

// dumpRulesPaged walks the multipart dump with an explicit page size
// (tests shrink it to exercise multi-page dumps without frame-sized rule
// counts).
func (c *Client) dumpRulesPaged(ctx context.Context, pageSize uint16) ([]classifier.Rule, error) {
	var out []classifier.Rule
	after := uint64(0)
	for {
		req := &Message{
			Header:       Header{Type: TypeRulesRequest},
			RulesRequest: &RulesRequest{After: after, Max: pageSize},
		}
		var resp *Message
		var err error
		if d := c.RequestTimeout(); d > 0 {
			pageCtx, cancel := context.WithTimeout(ctx, d)
			resp, err = c.roundTripCtx(pageCtx, req)
			cancel()
		} else {
			resp, err = c.roundTripCtx(ctx, req)
		}
		if err != nil {
			return nil, err
		}
		if resp.Header.Type != TypeRulesReply || resp.RulesReply == nil {
			return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
		}
		for _, e := range resp.RulesReply.Rules {
			r, err := e.Rule()
			if err != nil {
				return nil, err
			}
			out = append(out, r)
			after = e.RuleID
		}
		if !resp.RulesReply.More {
			return out, nil
		}
		if len(resp.RulesReply.Rules) == 0 {
			return nil, fmt.Errorf("ofwire: rules dump stalled: empty page with more=true")
		}
	}
}

// RequestQoS negotiates a new insertion guarantee on the remote switch
// (CreateTCAMQoS over the wire). The switch re-carves its TCAM; installed
// rules are discarded, exactly as slice reconfiguration does on hardware.
func (c *Client) RequestQoS(guarantee time.Duration) (*QoSReply, error) {
	resp, err := c.roundTrip(&Message{
		Header:     Header{Type: TypeQoSRequest},
		QoSRequest: &QoSRequest{GuaranteeNS: uint64(guarantee)},
	})
	if err != nil {
		return nil, err
	}
	if resp.Header.Type != TypeQoSReply || resp.QoSReply == nil {
		return nil, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	return resp.QoSReply, nil
}
