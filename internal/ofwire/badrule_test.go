package ofwire

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
)

// badLenRule carries a literal /33 destination prefix: classifier.NewPrefix
// would panic on it, but the wire encodes whatever length the struct holds.
func badLenRule(id classifier.RuleID) classifier.Rule {
	return classifier.Rule{
		ID:       id,
		Match:    classifier.Match{Dst: classifier.Prefix{Addr: 0x0A000000, Len: 33}},
		Priority: 5,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: 1},
	}
}

func TestWireRuleRejectsLongPrefix(t *testing.T) {
	if _, err := (&FlowMod{RuleID: 1, DstLen: 33}).Rule(); err == nil {
		t.Error("FlowMod.Rule accepted dst /33")
	}
	if _, err := (&FlowMod{RuleID: 1, SrcLen: 255}).Rule(); err == nil {
		t.Error("FlowMod.Rule accepted src /255")
	}
	if _, err := (RuleEntry{RuleID: 1, DstLen: 40}).Rule(); err == nil {
		t.Error("RuleEntry.Rule accepted dst /40")
	}
}

// TestServerRejectsLongPrefixFlowMod: a per-op flow-mod with DstLen 33 gets
// a typed bad-request error instead of crashing the agent, and the same
// connection goes on serving valid requests.
func TestServerRejectsLongPrefixFlowMod(t *testing.T) {
	srv, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var remote *ErrorBody
	if _, err := c.Insert(badLenRule(1)); !errors.As(err, &remote) || remote.Code != ErrCodeBadRequest {
		t.Fatalf("insert of a /33 rule: err = %v, want ErrCodeBadRequest", err)
	}
	if _, err := c.Insert(batchRule(2)); err != nil {
		t.Fatalf("valid insert after the rejected one: %v", err)
	}
	if got := srv.Agent().Rules(); len(got) != 1 || got[0].ID != batchRule(2).ID {
		t.Fatalf("agent rules = %v, want only rule %d", got, batchRule(2).ID)
	}
}

// TestServerRejectsLongPrefixBatch: one bad entry rejects the whole
// vectored frame before any op applies.
func TestServerRejectsLongPrefixBatch(t *testing.T) {
	srv, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Insert(batchRule(0)); err != nil {
		t.Fatal(err)
	}
	before := srv.Agent().Rules()
	_, err = c.InsertBatch([]classifier.Rule{batchRule(1), badLenRule(99), batchRule(2)})
	var remote *ErrorBody
	if !errors.As(err, &remote) || remote.Code != ErrCodeBadRequest {
		t.Fatalf("batch with a /33 entry: err = %v, want ErrCodeBadRequest frame error", err)
	}
	if after := srv.Agent().Rules(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected batch changed the agent: before %v, after %v", before, after)
	}
	if _, err := c.InsertBatch([]classifier.Rule{batchRule(1)}); err != nil {
		t.Fatalf("valid batch after the rejected one: %v", err)
	}
}

// TestDumpRulesRejectsLongPrefix: a rules dump carrying an out-of-range
// prefix length fails the call instead of panicking the controller.
func TestDumpRulesRejectsLongPrefix(t *testing.T) {
	c := fakePeer(t, func(conn net.Conn) error {
		req, err := ReadMessage(conn)
		if err != nil {
			return err
		}
		reply := &Message{
			Header:     Header{Type: TypeRulesReply, XID: req.Header.XID},
			RulesReply: &RulesReply{Rules: []RuleEntry{{RuleID: 1, DstLen: 33}}},
		}
		if err := WriteMessage(conn, reply); err != nil {
			return err
		}
		conn.Close()
		return nil
	})
	if rules, err := c.DumpRules(); err == nil {
		t.Fatalf("DumpRules accepted a /33 entry: %v", rules)
	}
}
