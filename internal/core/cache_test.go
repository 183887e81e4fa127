package core

// Tests for the flow-driven rule caching hierarchy (DESIGN.md §16): basic
// two-tier behavior, dependency-safe eviction via covers, policy-driven
// rebalancing, and — the load-bearing ones — differential equivalence
// against the single-table oracle under churn, crash-restarts, and
// interrupted migrations.

import (
	"math/rand"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/rulecache"
)

func newCachedAgent(t *testing.T, capacity int, policy rulecache.Policy) *Agent {
	t.Helper()
	// SampleStride 1 records every hit, so unit tests can assert exact
	// per-rule counts; the churn/differential tests build their own configs
	// and keep the default sampled stride.
	return newTestAgent(t, Config{
		DisableRateLimit: true,
		Cache:            &rulecache.Config{Capacity: capacity, Policy: policy, SampleStride: 1},
	})
}

func TestCachedBasic(t *testing.T) {
	a := newCachedAgent(t, 4, rulecache.PolicyLFU)
	if !a.Cached() {
		t.Fatal("Cached() must be true")
	}
	now := time.Duration(0)
	for i := 1; i <= 3; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", int32(i), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		res, err := a.Insert(now, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathSoft {
			t.Errorf("rule %d path = %v, want soft", i, res.Path)
		}
		if !res.Guaranteed {
			t.Errorf("rule %d not guaranteed", i)
		}
		now += time.Millisecond
	}
	if got := a.CacheResident(); got != 3 {
		t.Errorf("residents = %d, want 3 (capacity 4)", got)
	}
	if got := len(a.Rules()); got != 3 {
		t.Errorf("Rules() = %d entries, want 3", got)
	}
	// All three should answer from hardware.
	for i := 1; i <= 3; i++ {
		r, ok := a.Lookup(uint32(i)<<24|1, 0)
		if !ok || r.Action.Port != i {
			t.Errorf("lookup rule %d: got %v %v", i, r, ok)
		}
	}
	snap := a.CacheStats()
	if snap.HWHits != 3 || snap.SoftHits != 0 {
		t.Errorf("stats = hw %d soft %d, want 3/0", snap.HWHits, snap.SoftHits)
	}
	if a.RuleHits(1) != 1 {
		t.Errorf("RuleHits(1) = %d, want 1", a.RuleHits(1))
	}
	// Miss: no rule matches.
	if _, ok := a.Lookup(0xF0000001, 0); ok {
		t.Error("unexpected match")
	}
	if a.CacheStats().Misses != 1 {
		t.Errorf("misses = %d", a.CacheStats().Misses)
	}
	// Modify action in place.
	mod := dstRule(1, "10.0.0.0/8", 1, 99)
	mod.Match = classifier.DstMatch(classifier.NewPrefix(1<<24, 8))
	if _, err := a.Modify(now, mod); err != nil {
		t.Fatal(err)
	}
	if r, ok := a.Lookup(1<<24|1, 0); !ok || r.Action.Port != 99 {
		t.Errorf("post-modify lookup: %v %v", r, ok)
	}
	// Delete.
	if _, err := a.Delete(now, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup(2<<24|1, 0); ok {
		t.Error("deleted rule still matches")
	}
	if got := a.CacheResident(); got != 2 {
		t.Errorf("residents after delete = %d, want 2", got)
	}
	// Duplicate / unknown errors.
	dup := dstRule(1, "10.0.0.0/8", 1, 1)
	if _, err := a.Insert(now, dup); err == nil {
		t.Error("duplicate insert must fail")
	}
	if _, err := a.Delete(now, 77); err == nil {
		t.Error("unknown delete must fail")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

// TestCachedEvictionCovers drives the ruleset past capacity so that
// software-only rules which beat residents must be shielded by covers, and
// verifies the two-tier pipeline still answers like the oracle.
func TestCachedEvictionCovers(t *testing.T) {
	a := newCachedAgent(t, 2, rulecache.PolicyLFU)
	now := time.Duration(0)
	// Two broad low-priority residents fill the cache.
	for i := 1; i <= 2; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", 1, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		if _, err := a.Insert(now, r); err != nil {
			t.Fatal(err)
		}
		now += time.Millisecond
	}
	// A higher-priority narrow rule inside resident 1's region stays
	// software-only (capacity reached) and must be shielded.
	hot := classifier.Rule{
		ID:       3,
		Match:    classifier.DstMatch(classifier.NewPrefix(1<<24|0x00010000, 16)),
		Priority: 9,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: 30},
	}
	if _, err := a.Insert(now, hot); err != nil {
		t.Fatal(err)
	}
	if got := a.CacheResident(); got != 2 {
		t.Fatalf("residents = %d, want 2", got)
	}
	snap := a.CacheStats()
	if snap.CoverInstalls == 0 {
		t.Fatalf("expected cover installs, got %+v", snap)
	}
	// A packet in the shielded region must punt to software and win with
	// the high-priority rule, not the resident underneath it.
	r, ok := a.Lookup(1<<24|0x00010005, 0)
	if !ok || r.ID != 3 {
		t.Fatalf("shielded lookup: got %v %v, want rule 3", r, ok)
	}
	if got := a.CacheStats().SoftHits; got != 1 {
		t.Errorf("soft hits = %d, want 1", got)
	}
	// Packets outside the shield still answer from hardware.
	if r, ok := a.Lookup(2<<24|1, 0); !ok || r.ID != 2 {
		t.Errorf("unshielded lookup: %v %v", r, ok)
	}
	// Deleting the shielded rule removes its covers.
	if _, err := a.Delete(now, 3); err != nil {
		t.Fatal(err)
	}
	after := a.CacheStats()
	if after.CoverRemovals != snap.CoverInstalls {
		t.Errorf("cover removals = %d, want %d", after.CoverRemovals, snap.CoverInstalls)
	}
	if r, ok := a.Lookup(1<<24|0x00010005, 0); !ok || r.ID != 1 {
		t.Errorf("post-delete lookup: %v %v, want rule 1", r, ok)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

// TestCachedRebalancePromotesHot checks that the periodic rebalance pass
// swaps cold residents for the rules the traffic actually hits.
func TestCachedRebalancePromotesHot(t *testing.T) {
	a := newCachedAgent(t, 2, rulecache.PolicyLFU)
	now := time.Duration(0)
	for i := 1; i <= 4; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", 1, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		if _, err := a.Insert(now, r); err != nil {
			t.Fatal(err)
		}
		now += time.Millisecond
	}
	// Rules 1,2 are resident (first come). Hammer 3 and 4.
	for k := 0; k < 200; k++ {
		a.Lookup(3<<24|uint32(k), 0)
		a.Lookup(4<<24|uint32(k), 0)
	}
	before := a.CacheStats()
	if before.SoftHits == 0 {
		t.Fatal("expected soft hits while 3,4 are software-only")
	}
	now += 10 * time.Millisecond
	a.Rebalance(now)
	if got := a.CacheResident(); got != 2 {
		t.Fatalf("residents after rebalance = %d, want 2", got)
	}
	if a.CacheStats().Promotions < 4 { // 2 initial + 2 rebalance
		t.Errorf("promotions = %d, want ≥ 4", a.CacheStats().Promotions)
	}
	if a.CacheStats().Demotions < 2 {
		t.Errorf("demotions = %d, want ≥ 2", a.CacheStats().Demotions)
	}
	// Now 3,4 answer from hardware.
	mark := a.CacheStats().HWHits
	a.Lookup(3<<24|7, 0)
	a.Lookup(4<<24|7, 0)
	if got := a.CacheStats().HWHits - mark; got != 2 {
		t.Errorf("post-rebalance HW hits = %d, want 2", got)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

// runCachedSeq replays a fixed-seed churn workload (inserts, deletes,
// modifies, ticks, crash-restarts, interrupted migrations) on a cached
// agent and verifies after every step that the two-tier pipeline answers
// exactly like the reference monolithic table.
func runCachedSeq(t *testing.T, seed int64, policy rulecache.Policy, verbose bool) bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	a := newTestAgent(t, Config{
		DisableRateLimit: true,
		Cache:            &rulecache.Config{Capacity: 8, Policy: policy, MaxCoverParts: 4},
	})
	// Cut off roughly one migration in three at a random step, exactly as a
	// crash mid-migration would.
	interrupt := rand.New(rand.NewSource(seed + 1))
	var cut MigrationStep
	a.SetMigrationInterrupt(func(step MigrationStep, _ time.Duration) bool {
		return interrupt.Intn(12) == 0 && step == cut
	})
	now := time.Duration(0)
	live := []classifier.RuleID{}
	nextID := classifier.RuleID(1)

	check := func(op int) bool {
		rr := rand.New(rand.NewSource(seed*1000 + int64(op)))
		logical := a.LogicalRules()
		for k := 0; k < 150; k++ {
			var dst uint32
			if len(logical) > 0 && rr.Intn(4) != 0 {
				pick := logical[rr.Intn(len(logical))].Match.Dst
				dst = pick.Addr | (rr.Uint32() & ^pick.Mask())
			} else {
				dst = rr.Uint32()
			}
			want, wok := a.LogicalLookup(dst, 0)
			got, gok := a.Lookup(dst, 0)
			if wok != gok || (wok && (got.Action != want.Action || got.Priority != want.Priority)) {
				if verbose {
					t.Logf("op %d: pkt %08x got %v(%v) want %v(%v)", op, dst, got, gok, want, wok)
					t.Logf("residents=%d stats=%+v", a.CacheResident(), a.CacheStats())
					t.Logf("shadow: %v", a.shadow.Rules())
					t.Logf("main: %v", a.main.Rules())
					t.Logf("soft: %v", a.soft.Rules())
				}
				return false
			}
		}
		return true
	}

	for op := 0; op < 140; op++ {
		now += time.Duration(r.Intn(8)+1) * time.Millisecond
		switch x := r.Intn(20); {
		case x < 9: // insert
			rule := classifier.Rule{
				ID:       nextID,
				Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(r.Uint32()&0xFFFF), uint8(16+r.Intn(17)))),
				Priority: int32(r.Intn(20)),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
			}
			if _, err := a.Insert(now, rule); err != nil {
				t.Logf("seed %d op %d insert: %v", seed, op, err)
				return false
			}
			live = append(live, nextID)
			nextID++
		case x < 12 && len(live) > 0: // delete
			i := r.Intn(len(live))
			if _, err := a.Delete(now, live[i]); err != nil {
				t.Logf("seed %d op %d delete: %v", seed, op, err)
				return false
			}
			live = append(live[:i], live[i+1:]...)
		case x < 14 && len(live) > 0: // modify (action or priority)
			id := live[r.Intn(len(live))]
			orig, _, ok := a.soft.Get(id)
			if !ok {
				t.Logf("seed %d op %d: live rule %d missing from soft tier", seed, op, id)
				return false
			}
			mod := orig
			if r.Intn(2) == 0 {
				mod.Action = classifier.Action{Type: classifier.ActionForward, Port: int(id) + 1000}
			} else {
				mod.Priority = int32(r.Intn(20))
			}
			if _, err := a.Modify(now, mod); err != nil {
				t.Logf("seed %d op %d modify: %v", seed, op, err)
				return false
			}
		case x < 17: // tick: rebalance + maybe migration
			cut = MigrationStep(interrupt.Intn(4))
			a.Tick(now)
		case x < 18: // lookup burst to skew popularity
			for k := 0; k < 30; k++ {
				a.Lookup(0xC0A80000|r.Uint32()&0xFFFF, 0)
			}
		default: // crash-restart + reconcile
			a.CrashRestart(now)
			a.Reconcile(now)
			if err := a.CheckConsistency(); err != nil {
				t.Logf("seed %d op %d post-reconcile: %v", seed, op, err)
				return false
			}
		}
		// A cut migration marks the agent divergent; the controller's
		// protocol is to Reconcile before trusting lookups again.
		if a.NeedsReconcile() {
			a.Reconcile(now)
			if err := a.CheckConsistency(); err != nil {
				t.Logf("seed %d op %d reconcile after interrupt: %v", seed, op, err)
				return false
			}
		}
		if !check(op) {
			return false
		}
	}
	// Drain any in-flight migration, then final full check.
	now += time.Second
	a.Advance(now)
	a.Tick(now)
	if a.NeedsReconcile() {
		a.Reconcile(now)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Logf("seed %d final consistency: %v", seed, err)
		return false
	}
	return check(9999)
}

func TestCachedDifferentialChurn(t *testing.T) {
	policies := []rulecache.Policy{rulecache.PolicyLRU, rulecache.PolicyLFU, rulecache.PolicyCostAware}
	for seed := int64(0); seed < 30; seed++ {
		policy := policies[seed%3]
		if !runCachedSeq(t, seed, policy, false) {
			t.Logf("seed %d (%v) fails; replaying verbosely", seed, policy)
			runCachedSeq(t, seed, policy, true)
			t.FailNow()
		}
	}
}

// TestCachedBatchMatchesPerOp applies the same op sequence through the
// vectored entry points and the per-op ones and requires identical results
// and lookup behavior.
func TestCachedBatchMatchesPerOp(t *testing.T) {
	mk := func() *Agent {
		return newTestAgent(t, Config{
			DisableRateLimit: true,
			Cache:            &rulecache.Config{Capacity: 4, Policy: rulecache.PolicyLFU},
		})
	}
	perOp, batched := mk(), mk()
	rng := rand.New(rand.NewSource(11))
	var ops []BatchOp
	nextID := classifier.RuleID(1)
	for i := 0; i < 40; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			ops = append(ops, BatchOp{Kind: BatchInsert, Rule: classifier.Rule{
				ID:       nextID,
				Match:    classifier.DstMatch(classifier.NewPrefix(0xAC100000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(9)))),
				Priority: int32(rng.Intn(6)),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
			}})
			nextID++
		case 2:
			if nextID > 1 {
				ops = append(ops, BatchOp{Kind: BatchDelete, Rule: classifier.Rule{ID: classifier.RuleID(rng.Intn(int(nextID)) + 1)}})
			}
		default:
			if nextID > 1 {
				id := classifier.RuleID(rng.Intn(int(nextID)) + 1)
				ops = append(ops, BatchOp{Kind: BatchModify, Rule: classifier.Rule{
					ID:       id,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xAC100000|(rng.Uint32()&0xFFFF), 24)),
					Priority: int32(rng.Intn(6)),
					Action:   classifier.Action{Type: classifier.ActionDrop},
				}})
			}
		}
	}
	now := 5 * time.Millisecond
	var perRes []BatchResult
	for _, op := range ops {
		var res Result
		var err error
		switch op.Kind {
		case BatchInsert:
			res, err = perOp.Insert(now, op.Rule)
		case BatchDelete:
			res, err = perOp.Delete(now, op.Rule.ID)
		default:
			res, err = perOp.Modify(now, op.Rule)
		}
		perRes = append(perRes, BatchResult{Res: res, Err: err})
	}
	batchRes := batched.ApplyBatch(now, ops, nil)
	if len(batchRes) != len(perRes) {
		t.Fatalf("result count %d vs %d", len(batchRes), len(perRes))
	}
	for i := range perRes {
		if (perRes[i].Err == nil) != (batchRes[i].Err == nil) {
			t.Errorf("op %d: err %v vs %v", i, perRes[i].Err, batchRes[i].Err)
		}
		if perRes[i].Err == nil && perRes[i].Res.Path != batchRes[i].Res.Path {
			t.Errorf("op %d: path %v vs %v", i, perRes[i].Res.Path, batchRes[i].Res.Path)
		}
	}
	rr := rand.New(rand.NewSource(12))
	for k := 0; k < 400; k++ {
		dst := 0xAC100000 | rr.Uint32()&0xFFFFF
		g1, ok1 := perOp.Lookup(dst, 0)
		g2, ok2 := batched.Lookup(dst, 0)
		if ok1 != ok2 || (ok1 && g1.Action != g2.Action) {
			t.Fatalf("pkt %08x: per-op %v(%v) batch %v(%v)", dst, g1, ok1, g2, ok2)
		}
	}
	if err := batched.CheckConsistency(); err != nil {
		t.Errorf("batched consistency: %v", err)
	}
}

// FuzzCachedLookupEquivalence drives a cached agent with a fuzz-shaped op
// stream and cross-checks every lookup against the single-table oracle.
func FuzzCachedLookupEquivalence(f *testing.F) {
	// Boundary seeds: promotion fill, demotion churn, cover-heavy overlap.
	f.Add(int64(1), []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55})
	f.Add(int64(2), []byte{0xF0, 0xF1, 0xF2, 0x03, 0x04, 0x05, 0x06, 0x07, 0xFF})
	f.Add(int64(3), []byte{0x80, 0x81, 0x82, 0x83, 0x90, 0x91, 0x92, 0x93, 0xA0, 0xA1})
	f.Add(int64(4), []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xA0, 0xB0, 0xC0})
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		if len(program) == 0 || len(program) > 256 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := newTestAgent(t, Config{
			DisableRateLimit: true,
			Cache: &rulecache.Config{
				Capacity: 1 + int(program[0]%6),
				Policy:   rulecache.Policy(program[0] % 3),
			},
		})
		now := time.Duration(0)
		nextID := classifier.RuleID(1)
		live := []classifier.RuleID{}
		for _, b := range program {
			now += time.Duration(b%7+1) * time.Millisecond
			switch b % 5 {
			case 0, 1: // insert
				r := classifier.Rule{
					ID:       nextID,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|uint32(b)<<8, uint8(16+int(b%13)))),
					Priority: int32(b % 8),
					Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
				}
				if _, err := a.Insert(now, r); err == nil {
					live = append(live, nextID)
				}
				nextID++
			case 2: // delete
				if len(live) > 0 {
					i := int(b) % len(live)
					a.Delete(now, live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // tick (rebalance)
				a.Tick(now)
			default: // lookups to skew popularity
				for k := 0; k < int(b%16); k++ {
					a.Lookup(0xC0A80000|uint32(b)<<8|uint32(k), 0)
				}
			}
			if a.NeedsReconcile() {
				a.Reconcile(now)
			}
			// Cross-check a probe sample.
			for k := 0; k < 20; k++ {
				dst := 0xC0A80000 | rng.Uint32()&0xFFFF
				want, wok := a.LogicalLookup(dst, 0)
				got, gok := a.Lookup(dst, 0)
				if wok != gok || (wok && (got.Action != want.Action || got.Priority != want.Priority)) {
					t.Fatalf("pkt %08x: got %v(%v) want %v(%v)", dst, got, gok, want, wok)
				}
			}
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}
