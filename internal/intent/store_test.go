package intent

import (
	"fmt"
	"testing"

	"hermes/internal/classifier"
)

// routeMod2 partitions rules across two switches by ID parity.
func routeMod2(id classifier.RuleID) string {
	return fmt.Sprintf("sw-%d", uint64(id)%2)
}

func rule(id int, port int) classifier.Rule {
	return classifier.Rule{
		ID:       classifier.RuleID(id),
		Match:    classifier.DstMatch(classifier.NewPrefix(uint32(id)<<12|0x0A000000, 28)),
		Priority: int32(id%10 + 1),
		Action:   classifier.Action{Type: classifier.ActionForward, Port: port},
	}
}

// TestStoreGenerationsAndPartitions: effective mutations bump the
// generation, no-ops do not, and Desired returns the right partition
// sorted by ID with the covering generation.
func TestStoreGenerationsAndPartitions(t *testing.T) {
	s := NewStore(routeMod2)
	if s.Generation() != 0 || s.Len() != 0 {
		t.Fatal("fresh store not empty at generation 0")
	}
	for i := 1; i <= 6; i++ {
		if gen := s.Set(rule(i, 1)); gen != uint64(i) {
			t.Fatalf("set %d: generation %d, want %d", i, gen, i)
		}
	}
	// Identical Set is a no-op.
	if gen := s.Set(rule(3, 1)); gen != 6 {
		t.Fatalf("no-op set bumped generation to %d", gen)
	}
	// Changed Set bumps.
	if gen := s.Set(rule(3, 9)); gen != 7 {
		t.Fatalf("modify set: generation %d, want 7", gen)
	}
	// Absent Delete is a no-op.
	if gen := s.Delete(99); gen != 7 {
		t.Fatalf("no-op delete bumped generation to %d", gen)
	}
	if gen := s.Delete(4); gen != 8 {
		t.Fatalf("delete: generation %d, want 8", gen)
	}

	odd, gen := s.Desired("sw-1")
	if gen != 8 {
		t.Fatalf("Desired generation %d, want 8", gen)
	}
	wantOdd := []classifier.RuleID{1, 3, 5}
	if len(odd) != len(wantOdd) {
		t.Fatalf("sw-1 partition has %d rules, want %d", len(odd), len(wantOdd))
	}
	for i, r := range odd {
		if r.ID != wantOdd[i] {
			t.Fatalf("sw-1 partition[%d] = rule %d, want %d (sorted)", i, r.ID, wantOdd[i])
		}
	}
	if odd[1].Action.Port != 9 {
		t.Fatalf("modified rule 3 not reflected: port %d", odd[1].Action.Port)
	}
	even, _ := s.Desired("sw-0")
	if len(even) != 2 { // 2, 6 remain; 4 deleted
		t.Fatalf("sw-0 partition has %d rules, want 2", len(even))
	}
	if s.Len() != 5 {
		t.Fatalf("store holds %d rules, want 5", s.Len())
	}
	if s.SwitchOf(3) != "sw-1" {
		t.Fatalf("SwitchOf(3) = %q", s.SwitchOf(3))
	}
	if none, _ := s.Desired("no-such-switch"); len(none) != 0 {
		t.Fatalf("unknown switch partition has %d rules", len(none))
	}
}

// TestStoreSubscribe: subscribers see one callback per effective mutation
// with the owning switch and the new generation; no-ops stay silent.
func TestStoreSubscribe(t *testing.T) {
	s := NewStore(routeMod2)
	type note struct {
		sw  string
		gen uint64
	}
	var got []note
	s.Subscribe(func(sw string, gen uint64) { got = append(got, note{sw, gen}) })

	s.Set(rule(1, 1)) // sw-1, gen 1
	s.Set(rule(2, 1)) // sw-0, gen 2
	s.Set(rule(1, 1)) // no-op
	s.Set(rule(1, 5)) // sw-1, gen 3
	s.Delete(7)       // no-op
	s.Delete(2)       // sw-0, gen 4
	want := []note{{"sw-1", 1}, {"sw-0", 2}, {"sw-1", 3}, {"sw-0", 4}}
	if len(got) != len(want) {
		t.Fatalf("got %d notifications, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("notification %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
