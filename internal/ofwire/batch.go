package ofwire

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
)

// This file implements the vectored flow-mod path (DESIGN.md §15): N ops
// ride one TypeFlowModBatch frame under one XID, encoded into a reused
// buffer and written with a single net.Conn write, and the server applies
// the whole batch under one agent-lock acquisition. Per-op outcomes come
// back in one TypeFlowModBatchReply. The client splits oversized batches
// transparently at MaxBatchOps so callers never see the 64KiB codec bound.
//
// Batch ops do not run through the FlowLifecycle observer: the per-XID
// submitted/completed pairing is a per-op wire concept, and batch callers
// get every per-op outcome synchronously from the returned slice instead.

// BatchResult is the controller-visible outcome of one op inside a batch.
// Err, when non-nil, is an *ErrorBody carrying the remote status code —
// classifiable exactly like a per-op error frame.
type BatchResult struct {
	Result FlowModResult
	Err    error
}

// InsertBatch installs rules on the remote switch in order, vectoring them
// into as few frames as possible. It returns one result per rule; a non-nil
// error means the wire died and only the returned prefix was decided.
func (c *Client) InsertBatch(rules []classifier.Rule) ([]BatchResult, error) {
	return c.InsertBatchCtx(context.Background(), rules)
}

// InsertBatchCtx is InsertBatch bounded by the context's deadline.
func (c *Client) InsertBatchCtx(ctx context.Context, rules []classifier.Rule) ([]BatchResult, error) {
	return c.ApplyBatchCtx(ctx, flowModsFromRules(FlowAdd, rules))
}

// DeleteBatch removes rules by ID in order, vectored like InsertBatch.
func (c *Client) DeleteBatch(ids []classifier.RuleID) ([]BatchResult, error) {
	return c.DeleteBatchCtx(context.Background(), ids)
}

// DeleteBatchCtx is DeleteBatch bounded by the context's deadline.
func (c *Client) DeleteBatchCtx(ctx context.Context, ids []classifier.RuleID) ([]BatchResult, error) {
	ops := make([]FlowMod, len(ids))
	for i, id := range ids {
		ops[i] = FlowMod{Command: FlowDelete, RuleID: uint64(id)}
	}
	return c.ApplyBatchCtx(ctx, ops)
}

// ModifyBatch updates live rules in order, vectored like InsertBatch.
func (c *Client) ModifyBatch(rules []classifier.Rule) ([]BatchResult, error) {
	return c.ModifyBatchCtx(context.Background(), rules)
}

// ModifyBatchCtx is ModifyBatch bounded by the context's deadline.
func (c *Client) ModifyBatchCtx(ctx context.Context, rules []classifier.Rule) ([]BatchResult, error) {
	return c.ApplyBatchCtx(ctx, flowModsFromRules(FlowModify, rules))
}

func flowModsFromRules(cmd FlowModCommand, rules []classifier.Rule) []FlowMod {
	ops := make([]FlowMod, len(rules))
	for i := range rules {
		ops[i] = *FlowModFromRule(cmd, rules[i])
	}
	return ops
}

// ApplyBatch sends a mixed batch of flow-mods, applying the client's
// default request timeout to each frame individually (one frame per
// MaxBatchOps chunk).
func (c *Client) ApplyBatch(ops []FlowMod) ([]BatchResult, error) {
	return c.applyBatch(context.Background(), ops, true)
}

// ApplyBatchCtx is ApplyBatch bounded by the context's deadline, layered
// with the client's default per-request timeout per frame.
func (c *Client) ApplyBatchCtx(ctx context.Context, ops []FlowMod) ([]BatchResult, error) {
	return c.applyBatch(ctx, ops, true)
}

// applyBatch chunks ops at the frame bound and round-trips each chunk.
// Ops apply strictly in slice order: chunks are sent sequentially and the
// agent applies each frame's ops in order, so splitting never reorders.
// On a wire or decode error the results decided so far are returned with
// the error; the caller cannot assume anything about the remainder.
func (c *Client) applyBatch(ctx context.Context, ops []FlowMod, layerTimeout bool) ([]BatchResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	results := make([]BatchResult, 0, len(ops))
	for start := 0; start < len(ops); start += MaxBatchOps {
		end := start + MaxBatchOps
		if end > len(ops) {
			end = len(ops)
		}
		chunk := ops[start:end]
		var resp *Message
		var err error
		if d := c.RequestTimeout(); layerTimeout && d > 0 {
			chunkCtx, cancel := context.WithTimeout(ctx, d)
			resp, err = c.batchRoundTrip(chunkCtx, chunk)
			cancel()
		} else {
			resp, err = c.batchRoundTrip(ctx, chunk)
		}
		if err != nil {
			return results, err
		}
		if resp.Header.Type != TypeFlowModBatchReply || resp.FlowModBatchReply == nil {
			return results, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
		}
		entries := resp.FlowModBatchReply.Entries
		if len(entries) != len(chunk) {
			return results, fmt.Errorf("ofwire: batch reply carries %d entries for %d ops",
				len(entries), len(chunk))
		}
		for _, e := range entries {
			results = append(results, BatchResult{
				Result: FlowModResult{
					Latency:    time.Duration(e.Reply.LatencyNS),
					Path:       core.InsertPath(e.Reply.Path),
					Guaranteed: e.Reply.Guaranteed,
					Violation:  e.Reply.Violation,
					Partitions: int(e.Reply.Partitions),
				},
				Err: e.Err(),
			})
		}
	}
	return results, nil
}

// batchRoundTrip registers one XID, encodes the whole frame into the
// client's reused write buffer, issues a single conn.Write, and waits for
// the matching reply. len(ops) must be ≤ MaxBatchOps.
func (c *Client) batchRoundTrip(ctx context.Context, ops []FlowMod) (*Message, error) {
	xid := c.nextXID.Add(1)
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
	err := c.writeBatchLocked(xid, ops)
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
		return nil, fmt.Errorf("ofwire: request %d abandoned: %w", xid, ctx.Err())
	}
}

// writeBatchLocked encodes header + batch body into c.wbuf and writes the
// frame with one syscall. Caller holds c.wmu; the buffer is reused across
// batches, so the steady-state wire path allocates nothing.
func (c *Client) writeBatchLocked(xid uint32, ops []FlowMod) error {
	if len(ops) > MaxBatchOps {
		return ErrTooLarge
	}
	total := headerLen + batchFixedLen + flowModLen*len(ops)
	if cap(c.wbuf) < total {
		c.wbuf = make([]byte, total)
	}
	b := c.wbuf[:total]
	b[0] = Version
	b[1] = byte(TypeFlowModBatch)
	binary.BigEndian.PutUint16(b[2:4], uint16(total))
	binary.BigEndian.PutUint32(b[4:8], xid)
	binary.BigEndian.PutUint16(b[8:10], uint16(len(ops)))
	for i := range ops {
		encodeFlowModInto(b[headerLen+batchFixedLen+i*flowModLen:], &ops[i])
	}
	_, err := c.conn.Write(b)
	return err
}

// doFlowModBatch applies one vectored flow-mod frame: the whole batch runs
// under a single server-lock acquisition (and a single agent-lock round
// trip inside core.Agent.ApplyBatch), which is the point — per-op lock and
// snapshot costs are amortized across the frame. Per-op failures become
// status codes in the reply; a frame-level Error is reserved for malformed
// batches — an unknown command or an out-of-range prefix length in any
// entry rejects the whole frame before any op applies.
func (s *AgentServer) doFlowModBatch(req *Message) *Message {
	if req.FlowModBatch == nil {
		return errorMsg(ErrCodeBadRequest, "empty flow-mod-batch")
	}
	ops := req.FlowModBatch.Ops
	batch := make([]core.BatchOp, len(ops))
	for i := range ops {
		var kind core.BatchKind
		switch ops[i].Command {
		case FlowAdd:
			kind = core.BatchInsert
		case FlowDelete:
			kind = core.BatchDelete
		case FlowModify:
			kind = core.BatchModify
		default:
			return errorMsg(ErrCodeBadRequest, "unknown flow-mod command in batch")
		}
		r, err := ops[i].Rule()
		if err != nil {
			return errorMsg(ErrCodeBadRequest, err.Error())
		}
		batch[i] = core.BatchOp{Kind: kind, Rule: r}
	}
	s.mu.Lock()
	results := s.agent.ApplyBatch(s.now(), batch, nil)
	s.mu.Unlock()
	entries := make([]BatchReplyEntry, len(ops))
	for i, br := range results {
		if br.Err != nil {
			entries[i].Code = errCodeFor(br.Err)
			entries[i].Reply.RuleID = ops[i].RuleID
			continue
		}
		entries[i].Reply = FlowModReply{
			RuleID:     ops[i].RuleID,
			LatencyNS:  uint64(br.Res.Latency),
			Path:       clampU8(int(br.Res.Path)),
			Guaranteed: br.Res.Guaranteed,
			Violation:  br.Res.Violation,
			Partitions: clampU8(br.Res.Partitions),
		}
	}
	return &Message{
		Header:            Header{Type: TypeFlowModBatchReply},
		FlowModBatchReply: &FlowModBatchReply{Entries: entries},
	}
}
