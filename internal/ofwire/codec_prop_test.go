package ofwire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"hermes/internal/classifier"
)

// randomRule builds a valid classifier rule from the RNG.
func randomRule(rng *rand.Rand) classifier.Rule {
	dlen := uint8(rng.Intn(33))
	slen := uint8(rng.Intn(33))
	return classifier.Rule{
		ID: classifier.RuleID(rng.Uint64() >> 25), // keep below the reserved range
		Match: classifier.Match{
			Dst: classifier.NewPrefix(rng.Uint32(), dlen),
			Src: classifier.NewPrefix(rng.Uint32(), slen),
		},
		Priority: rng.Int31(),
		Action: classifier.Action{
			Type: classifier.ActionType(rng.Intn(3)),
			Port: rng.Intn(1 << 16),
		},
	}
}

// randomMessage builds a random valid frame of any body-carrying type.
func randomMessage(rng *rand.Rand) *Message {
	hdr := func(t MsgType) Header { return Header{Type: t, XID: rng.Uint32()} }
	switch rng.Intn(10) {
	case 0:
		cmds := []FlowModCommand{FlowAdd, FlowDelete, FlowModify}
		return &Message{
			Header:  hdr(TypeFlowMod),
			FlowMod: FlowModFromRule(cmds[rng.Intn(len(cmds))], randomRule(rng)),
		}
	case 1:
		return &Message{Header: hdr(TypeFlowModReply), FlowModReply: &FlowModReply{
			RuleID: rng.Uint64(), LatencyNS: rng.Uint64(),
			Path: uint8(rng.Intn(4)), Guaranteed: rng.Intn(2) == 0,
			Violation: rng.Intn(2) == 0, Partitions: uint8(rng.Intn(256)),
		}}
	case 2:
		return &Message{Header: hdr(TypeStatsReply), Stats: &Stats{
			Inserts: rng.Uint64(), ShadowInserts: rng.Uint64(), MainInserts: rng.Uint64(),
			Bypasses: rng.Uint64(), Violations: rng.Uint64(), Migrations: rng.Uint64(),
			ShadowOcc: rng.Uint32(), MainOcc: rng.Uint32(), ShadowSize: rng.Uint32(),
			OverheadPPM: rng.Uint32(), MaxRateMilli: rng.Uint64(),
		}}
	case 3:
		return &Message{Header: hdr(TypeQoSRequest), QoSRequest: &QoSRequest{GuaranteeNS: rng.Uint64()}}
	case 4:
		return &Message{Header: hdr(TypeQoSReply), QoSReply: &QoSReply{
			ShadowEntries: rng.Uint32(), OverheadPPM: rng.Uint32(),
			MaxRateMilli: rng.Uint64(), GuaranteeNS: rng.Uint64(),
		}}
	case 5:
		reason := make([]byte, rng.Intn(64))
		rng.Read(reason)
		return &Message{Header: hdr(TypeError), Error: &ErrorBody{
			Code: ErrorCode(rng.Intn(7) + 1), Reason: string(reason),
		}}
	case 6:
		payload := make([]byte, 1+rng.Intn(128))
		rng.Read(payload)
		types := []MsgType{TypeEchoRequest, TypeEchoReply}
		return &Message{Header: hdr(types[rng.Intn(2)]), Raw: payload}
	case 7:
		return &Message{Header: hdr(TypeRulesRequest), RulesRequest: &RulesRequest{
			After: rng.Uint64(), Max: uint16(rng.Intn(1 << 16)),
		}}
	case 8:
		reply := &RulesReply{More: rng.Intn(2) == 0}
		if n := rng.Intn(50); n > 0 {
			reply.Rules = make([]RuleEntry, n)
			for i := range reply.Rules {
				reply.Rules[i] = EntryFromRule(randomRule(rng))
			}
		}
		return &Message{Header: hdr(TypeRulesReply), RulesReply: reply}
	default:
		types := []MsgType{TypeHello, TypeBarrierRequest, TypeBarrierReply, TypeStatsRequest}
		return &Message{Header: hdr(types[rng.Intn(len(types))])}
	}
}

// TestCodecPropertyRoundTrip: encode(decode(m)) preserves every body for
// thousands of randomized frames.
func TestCodecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		in := randomMessage(rng)
		var buf bytes.Buffer
		if err := WriteMessage(&buf, in); err != nil {
			t.Fatalf("#%d write %s: %v", i, in.Header.Type, err)
		}
		out, err := ReadMessage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("#%d read %s: %v", i, in.Header.Type, err)
		}
		if out.Header.Type != in.Header.Type || out.Header.XID != in.Header.XID {
			t.Fatalf("#%d header mismatch: %+v vs %+v", i, out.Header, in.Header)
		}
		// Compare bodies; Raw compares by content (nil == empty).
		if !bytesEqualLoose(out.Raw, in.Raw) {
			t.Fatalf("#%d raw mismatch: %x vs %x", i, out.Raw, in.Raw)
		}
		type bodies struct {
			F  *FlowMod
			R  *FlowModReply
			S  *Stats
			Q  *QoSRequest
			P  *QoSReply
			E  *ErrorBody
			RQ *RulesRequest
			RR *RulesReply
		}
		got := bodies{out.FlowMod, out.FlowModReply, out.Stats, out.QoSRequest, out.QoSReply, out.Error,
			out.RulesRequest, out.RulesReply}
		want := bodies{in.FlowMod, in.FlowModReply, in.Stats, in.QoSRequest, in.QoSReply, in.Error,
			in.RulesRequest, in.RulesReply}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("#%d body mismatch (%s):\n got %+v\nwant %+v", i, in.Header.Type, got, want)
		}
	}
}

func bytesEqualLoose(a, b []byte) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return bytes.Equal(a, b)
}

// TestCodecRuleRoundTrip: a classifier rule survives Rule → FlowMod →
// wire → FlowMod → Rule for randomized rules and matches.
func TestCodecRuleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := randomRule(rng)
		m := &Message{Header: Header{Type: TypeFlowMod}, FlowMod: FlowModFromRule(FlowAdd, r)}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		out, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := out.FlowMod.Rule()
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != r.ID || got.Match != r.Match || got.Priority != r.Priority ||
			got.Action != r.Action {
			t.Fatalf("#%d rule mismatch:\n got %+v\nwant %+v", i, got, r)
		}
	}
}

// TestCodecTruncatedFrames: every strict prefix of a valid frame must
// produce an error — never a panic, never a bogus success.
func TestCodecTruncatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		m := randomMessage(rng)
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		for cut := 0; cut < len(full); cut++ {
			if _, err := ReadMessage(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("truncated %s frame at %d/%d bytes decoded without error",
					m.Header.Type, cut, len(full))
			}
		}
	}
}

// TestCodecBodyTooShortForType: a frame whose declared length is valid but
// whose body is shorter than the type's fixed layout must fail with
// ErrTruncated.
func TestCodecBodyTooShortForType(t *testing.T) {
	for _, typ := range []MsgType{TypeFlowMod, TypeFlowModReply, TypeStatsReply,
		TypeQoSRequest, TypeQoSReply, TypeError} {
		raw := []byte{Version, byte(typ), 0, 9, 0, 0, 0, 1, 0xFF} // 1-byte body
		_, err := ReadMessage(bytes.NewReader(raw))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s with 1-byte body: err = %v, want ErrTruncated", typ, err)
		}
	}
}

// TestCodecOversizedFrame: frames beyond MaxMessageLen are refused at
// encode time.
func TestCodecOversizedFrame(t *testing.T) {
	payload := make([]byte, MaxMessageLen) // + header > MaxMessageLen
	err := WriteMessage(io.Discard, &Message{Header: Header{Type: TypeEchoRequest}, Raw: payload})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized echo: err = %v, want ErrTooLarge", err)
	}
	reason := make([]byte, MaxMessageLen)
	err = WriteMessage(io.Discard, &Message{
		Header: Header{Type: TypeError},
		Error:  &ErrorBody{Code: ErrCodeInternal, Reason: string(reason)},
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized error: err = %v, want ErrTooLarge", err)
	}
	// A frame of exactly MaxMessageLen would wrap the uint16 length field
	// to zero; it must be refused too.
	err = WriteMessage(io.Discard, &Message{
		Header: Header{Type: TypeEchoRequest},
		Raw:    make([]byte, MaxMessageLen-headerLen),
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("length-wrapping echo: err = %v, want ErrTooLarge", err)
	}
	// The largest frame that fits still round-trips.
	payload = payload[:MaxMessageLen-headerLen-1]
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Header: Header{Type: TypeEchoRequest}, Raw: payload}); err != nil {
		t.Fatalf("max-size echo: %v", err)
	}
	out, err := ReadMessage(&buf)
	if err != nil || len(out.Raw) != len(payload) {
		t.Fatalf("max-size echo round trip: %d bytes, %v", len(out.Raw), err)
	}
}
