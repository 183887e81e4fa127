// Package ofwire implements a compact OpenFlow-inspired control channel
// between an SDN controller and a Hermes-managed switch agent (the
// deployment of Fig. 2: controller → OF agent → Hermes agent → ASIC).
//
// The protocol is intentionally minimal but wire-realistic: fixed 8-byte
// headers (version, type, length, transaction id) followed by fixed-layout
// bodies, big-endian like OpenFlow. Beyond the classic message types
// (Hello, Echo, FlowMod, Barrier, Error, Stats) it carries the Hermes QoS
// extension — CreateTCAMQoS over the wire — so a controller can negotiate
// guarantees remotely (§7).
//
// Framing and codecs use only the standard library (encoding/binary, net).
package ofwire

import (
	"errors"
	"fmt"
	"time"

	"hermes/internal/classifier"
)

// Version is the protocol version carried in every header.
const Version = 1

// MaxMessageLen bounds a frame; anything larger is a protocol error.
const MaxMessageLen = 1 << 16

// MsgType enumerates message kinds.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypeFlowMod
	TypeFlowModReply
	TypeBarrierRequest
	TypeBarrierReply
	TypeStatsRequest
	TypeStatsReply
	TypeQoSRequest
	TypeQoSReply
	TypeError
	TypeRulesRequest
	TypeRulesReply
	TypeFlowModBatch
	TypeFlowModBatchReply
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeFlowMod:
		return "flow-mod"
	case TypeFlowModReply:
		return "flow-mod-reply"
	case TypeBarrierRequest:
		return "barrier-request"
	case TypeBarrierReply:
		return "barrier-reply"
	case TypeStatsRequest:
		return "stats-request"
	case TypeStatsReply:
		return "stats-reply"
	case TypeQoSRequest:
		return "qos-request"
	case TypeQoSReply:
		return "qos-reply"
	case TypeError:
		return "error"
	case TypeRulesRequest:
		return "rules-request"
	case TypeRulesReply:
		return "rules-reply"
	case TypeFlowModBatch:
		return "flow-mod-batch"
	case TypeFlowModBatchReply:
		return "flow-mod-batch-reply"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Protocol errors.
var (
	ErrBadVersion = errors.New("ofwire: bad protocol version")
	ErrTooLarge   = errors.New("ofwire: frame exceeds maximum length")
	ErrTruncated  = errors.New("ofwire: truncated body")
	ErrBadType    = errors.New("ofwire: unknown message type")
)

// Header is the fixed 8-byte frame prefix.
type Header struct {
	Version uint8
	Type    MsgType
	Length  uint16 // total frame length including the header
	XID     uint32 // transaction id echoed in replies
}

const headerLen = 8

// Message is one decoded frame.
type Message struct {
	Header Header
	// Body is exactly one of the pointers below, matching Header.Type;
	// Hello, Echo and Barrier frames have nil bodies (Echo payload rides
	// in Raw).
	FlowMod           *FlowMod
	FlowModReply      *FlowModReply
	FlowModBatch      *FlowModBatch
	FlowModBatchReply *FlowModBatchReply
	Stats             *Stats
	QoSRequest        *QoSRequest
	QoSReply          *QoSReply
	Error             *ErrorBody
	RulesRequest      *RulesRequest
	RulesReply        *RulesReply
	Raw               []byte // echo payloads and unrecognized-but-valid bodies
}

// FlowModCommand selects the flow-mod operation.
type FlowModCommand uint8

// Flow-mod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowDelete
	FlowModify
)

// FlowMod is the rule-change request (fixed 28-byte body).
type FlowMod struct {
	Command  FlowModCommand
	RuleID   uint64
	Priority int32
	DstAddr  uint32
	DstLen   uint8
	SrcAddr  uint32
	SrcLen   uint8
	Action   uint8 // classifier.ActionType
	Port     uint16
}

// Rule converts the wire form to the classifier form. The fields are peer
// data, so a prefix length above 32 is an error here, not the panic
// classifier.NewPrefix reserves for programming errors.
func (f *FlowMod) Rule() (classifier.Rule, error) {
	return wireRule(f.RuleID, f.Priority, f.DstAddr, f.DstLen, f.SrcAddr, f.SrcLen, f.Action, f.Port)
}

// FlowModFromRule builds the wire form of a rule change.
func FlowModFromRule(cmd FlowModCommand, r classifier.Rule) *FlowMod {
	return &FlowMod{
		Command:  cmd,
		RuleID:   uint64(r.ID),
		Priority: r.Priority,
		DstAddr:  r.Match.Dst.Addr,
		DstLen:   r.Match.Dst.Len,
		SrcAddr:  r.Match.Src.Addr,
		SrcLen:   r.Match.Src.Len,
		Action:   uint8(r.Action.Type),
		Port:     clampU16(r.Action.Port),
	}
}

// FlowModReply reports the outcome of one flow-mod (fixed 24-byte body).
type FlowModReply struct {
	RuleID     uint64
	LatencyNS  uint64 // modeled hardware latency
	Path       uint8  // core.InsertPath for adds; 0 otherwise
	Guaranteed bool
	Violation  bool
	Partitions uint8
}

// FlowModBatch vectors N flow-mods into one frame under one XID — one
// syscall and one agent lock acquisition per batch instead of per op
// (the DevoFlow observation: per-flow control-channel overhead dominates
// at scale). Ops apply in order; the reply carries one entry per op.
type FlowModBatch struct {
	Ops []FlowMod
}

// MaxBatchOps is the largest batch that fits one 64KiB frame. The reply
// entry (22 bytes) is smaller than the request entry (28 bytes), so any
// request that fits guarantees its reply fits too.
const MaxBatchOps = (MaxMessageLen - 1 - headerLen - batchFixedLen) / flowModLen

// BatchReplyEntry is the per-op outcome inside a batch reply: a status
// code (0 = ok) plus the usual flow-mod reply fields.
type BatchReplyEntry struct {
	Code  ErrorCode // 0 on success
	Reply FlowModReply
}

// Err returns the entry's failure as an error, or nil on success. The
// returned error is an *ErrorBody so callers can classify it exactly like
// a per-op error frame (errors.As against *ErrorBody).
func (e BatchReplyEntry) Err() error {
	if e.Code == 0 {
		return nil
	}
	return &ErrorBody{Code: e.Code, Reason: e.Code.String()}
}

// FlowModBatchReply carries one entry per op of the matching batch, in
// op order.
type FlowModBatchReply struct {
	Entries []BatchReplyEntry
}

// Stats is the agent-counter snapshot (fixed 64-byte body).
type Stats struct {
	Inserts       uint64
	ShadowInserts uint64
	MainInserts   uint64
	Bypasses      uint64
	Violations    uint64
	Migrations    uint64
	ShadowOcc     uint32
	MainOcc       uint32
	ShadowSize    uint32
	// OverheadPPM is the TCAM overhead in parts-per-million.
	OverheadPPM uint32
	// MaxRateMilli is the admissible rate in milli-rules/second.
	MaxRateMilli uint64
}

// QoSRequest asks the agent to (re)configure its guarantee (fixed 8-byte
// body) — CreateTCAMQoS over the wire.
type QoSRequest struct {
	GuaranteeNS uint64
}

// Guarantee returns the requested bound.
func (q *QoSRequest) Guarantee() time.Duration { return time.Duration(q.GuaranteeNS) }

// QoSReply carries the negotiated configuration (fixed 24-byte body).
type QoSReply struct {
	ShadowEntries uint32
	OverheadPPM   uint32
	MaxRateMilli  uint64
	GuaranteeNS   uint64
}

// RulesRequest asks the agent for one page of its controller-visible rule
// set (fixed 10-byte body) — the multipart table dump a level-triggered
// reconciler diffs its desired state against. After is an exclusive rule-ID
// cursor (0 starts the dump); Max caps the entries in the reply so every
// page fits the 64KiB frame bound. Cursor pagination keyed by rule ID stays
// coherent even when the table mutates between pages: a page never repeats
// an ID the previous page already carried.
type RulesRequest struct {
	After uint64
	Max   uint16
}

// MaxRuleEntries is the largest page an agent returns (and the default for
// a request with Max == 0): the most 25-byte entries that fit one frame.
const MaxRuleEntries = (MaxMessageLen - headerLen - rulesReplyFixedLen - 1) / ruleEntryLen

// RulesReply is one page of the dump: entries sorted by rule ID, plus a
// continuation flag.
type RulesReply struct {
	More  bool
	Rules []RuleEntry
}

// RuleEntry is the wire form of one installed rule (25-byte layout).
type RuleEntry struct {
	RuleID   uint64
	Priority int32
	DstAddr  uint32
	DstLen   uint8
	SrcAddr  uint32
	SrcLen   uint8
	Action   uint8 // classifier.ActionType
	Port     uint16
}

// Rule converts the wire form to the classifier form, rejecting prefix
// lengths above 32 like FlowMod.Rule.
func (e RuleEntry) Rule() (classifier.Rule, error) {
	return wireRule(e.RuleID, e.Priority, e.DstAddr, e.DstLen, e.SrcAddr, e.SrcLen, e.Action, e.Port)
}

// wireRule builds a classifier rule from the fields FlowMod and RuleEntry
// share, validating the prefix lengths before classifier.NewPrefix sees
// them.
func wireRule(id uint64, prio int32, dst uint32, dstLen uint8, src uint32, srcLen uint8, action uint8, port uint16) (classifier.Rule, error) {
	if dstLen > 32 || srcLen > 32 {
		return classifier.Rule{}, fmt.Errorf("ofwire: rule %d: prefix length out of range (dst /%d, src /%d)", id, dstLen, srcLen)
	}
	return classifier.Rule{
		ID: classifier.RuleID(id),
		Match: classifier.Match{
			Dst: classifier.NewPrefix(dst, dstLen),
			Src: classifier.NewPrefix(src, srcLen),
		},
		Priority: prio,
		Action:   classifier.Action{Type: classifier.ActionType(action), Port: int(port)},
	}, nil
}

// EntryFromRule builds the wire form of one rule.
func EntryFromRule(r classifier.Rule) RuleEntry {
	return RuleEntry{
		RuleID:   uint64(r.ID),
		Priority: r.Priority,
		DstAddr:  r.Match.Dst.Addr,
		DstLen:   r.Match.Dst.Len,
		SrcAddr:  r.Match.Src.Addr,
		SrcLen:   r.Match.Src.Len,
		Action:   uint8(r.Action.Type),
		Port:     clampU16(r.Action.Port),
	}
}

// ErrorCode classifies protocol and execution failures.
type ErrorCode uint16

// Error codes.
const (
	ErrCodeBadRequest ErrorCode = iota + 1
	ErrCodeTableFull
	ErrCodeUnknownRule
	ErrCodeDuplicateRule
	ErrCodeQoSInfeasible
	ErrCodeInternal
)

func (c ErrorCode) String() string {
	switch c {
	case ErrCodeBadRequest:
		return "bad request"
	case ErrCodeTableFull:
		return "table full"
	case ErrCodeUnknownRule:
		return "unknown rule"
	case ErrCodeDuplicateRule:
		return "duplicate rule"
	case ErrCodeQoSInfeasible:
		return "qos infeasible"
	case ErrCodeInternal:
		return "internal error"
	default:
		return fmt.Sprintf("error(%d)", uint16(c))
	}
}

// ErrorBody is the error frame body: a code plus a short reason.
type ErrorBody struct {
	Code   ErrorCode
	Reason string
}

func (e *ErrorBody) Error() string {
	return fmt.Sprintf("ofwire: remote error %d: %s", e.Code, e.Reason)
}
