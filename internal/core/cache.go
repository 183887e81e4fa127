package core

import (
	"fmt"
	"sort"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
	"hermes/internal/rulecache"
)

// This file wires the flow-driven rule caching hierarchy (internal/rulecache,
// DESIGN.md §16) into the agent. In cached mode (Config.Cache) the carved
// TCAM becomes the top tier of a two-tier pipeline:
//
//   - The software tier (a.soft) is authoritative: every controller rule
//     lives there with its (priority, seq) tie-break metadata, so a software
//     lookup alone always yields the single-table-oracle answer.
//   - The hardware tier holds the popular subset ("residents", installed
//     through the regular Gate Keeper paths) plus *cover* entries: rules at
//     a software-only rule's (priority, seq) spanning exactly its match,
//     whose ActionGotoNext punts matching packets to the software tier.
//
// Safety invariant (the eviction-safety argument): a hardware-tier answer
// with a real rule (ID < coverIDBase) is trusted iff every software-only
// rule h that overlaps-and-beats some resident is shielded by covers
// spanning h's whole match at h's (priority, seq). Then a real hardware
// winner r beat every cover that matched the packet, hence beats every
// shielded software-only rule matching it; an unshielded software-only rule
// beats no resident it overlaps, so r beats it too — r is the global
// winner. Covers that outlive their need are semantically harmless (the
// punt just re-resolves in the authoritative tier), which lets cover
// cleanup run lazily in the rebalance pass instead of on every mutation.
//
// classifier.CoverFor guarantees a cover set's union is exactly the shielded
// rule's match regardless of the dependency set, so an existing cover set
// never needs widening when the resident set changes.

// coverIDBase is the first rule ID minted for cover entries. It sits above
// partIDBase so fragment IDs (minted from 1<<40 upward) and controller IDs
// can never collide with it: a physical entry with ID ≥ coverIDBase is a
// cover, everything below is a real rule or fragment.
const coverIDBase classifier.RuleID = 1 << 41

// finishCachedLookup completes a cached-mode lookup from the hardware
// tier's verdict on the read slow path (read lock held): real hits return
// directly, cover hits and misses continue into the software tier.
func (a *Agent) finishCachedLookup(dst, src uint32, r classifier.Rule, ok bool) (classifier.Rule, bool) {
	if ok && r.ID < coverIDBase {
		a.cmgr.SampleHW(dst, src, r.ID)
		return r, true
	}
	if sr, sok := a.soft.Lookup(dst, src); sok {
		if a.cmgr.SampleSoft(dst, src) {
			if s := a.cmgr.Stats(sr.ID); s != nil {
				s.RecordHit(a.cmgr.EpochNow())
			}
		}
		return sr, true
	}
	a.cmgr.RecordMiss()
	return classifier.Rule{}, false
}

// buildHitMap maps every software rule ID to its stats record, so the
// published snapshot can attribute software-tier hits without taking the
// lock. Requires at least the read lock.
func (a *Agent) buildHitMap(rules []classifier.Rule) map[classifier.RuleID]*rulecache.RuleStats {
	m := make(map[classifier.RuleID]*rulecache.RuleStats, len(rules))
	for _, r := range rules {
		if s := a.cmgr.Stats(r.ID); s != nil {
			m[r.ID] = s
		}
	}
	return m
}

// --- cached-mode mutation paths ------------------------------------------

// insertCached installs a rule into the authoritative software tier and
// lets the cache manager decide its hardware fate: promote immediately
// while capacity lasts, otherwise shield it with covers if any resident it
// beats would mask it. The returned Result reflects the software install —
// the guaranteed, constant-cost action the controller observed.
func (a *Agent) insertCached(now time.Duration, r classifier.Rule) (Result, error) {
	a.advance(now)
	if r.ID >= partIDBase {
		return Result{}, fmt.Errorf("%w: %d", ErrReservedID, r.ID)
	}
	if a.soft.Contains(r.ID) {
		return Result{}, fmt.Errorf("%w: %d", ErrDuplicateRule, r.ID)
	}
	a.metrics.Inserts++
	seq := a.nextSeq
	a.nextSeq++
	cost := a.soft.Insert(r, seq)
	a.cmgr.Ensure(r.ID)
	a.cmgr.RecordSetup(cost)
	a.trackLogical(r)

	// Promotion re-installs the rule's ID into the hardware tier, which is
	// only safe against physically consistent tables: while a fault has the
	// agent marked for Reconcile, the rule stays software-only (covers use
	// fresh never-reused IDs, so shielding stays safe even then).
	if a.residentCount < a.cacheCfg.Capacity && !a.needsReconcile {
		if a.promoteLocked(now, r.ID) != nil {
			a.ensureCoversFor(now, r, seq)
		}
	} else {
		a.ensureCoversFor(now, r, seq)
	}

	res := Result{
		Path:       PathSoft,
		Latency:    cost,
		Completed:  now + cost,
		Guaranteed: true,
	}
	a.o.event(now, obs.EvAdmit, 0, uint64(r.ID), 0, uint64(cost))
	a.observeGuaranteed(now, res)
	return res, nil
}

// deleteCached removes a rule from both tiers.
func (a *Agent) deleteCached(now time.Duration, id classifier.RuleID) (Result, error) {
	a.advance(now)
	if !a.soft.Contains(id) {
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownRule, id)
	}
	a.metrics.Deletes++
	var total time.Duration
	completed := now
	if st, resident := a.rules[id]; resident {
		dst := st.original.Match.Dst
		t, c := a.removePhysical(now, st)
		total += t
		if c > completed {
			completed = c
		}
		delete(a.rules, id)
		a.recycleRuleState(st)
		a.residentIndex.Delete(dst, id)
		a.residentCount--
	}
	// Covers shielding this rule are now pointless; covers *of other rules*
	// that this rule's residency necessitated are cleaned up lazily by the
	// next rebalance (stale covers are semantically harmless).
	a.removeCoversFor(now, id)
	cost, _ := a.soft.Delete(id)
	total += cost
	if now+cost > completed {
		completed = now + cost
	}
	a.cmgr.Forget(id)
	a.untrackLogical(id)
	a.o.recordDelete(total)
	a.o.event(now, obs.EvDelete, 0, uint64(id), 0, uint64(total))
	return Result{Latency: total, Completed: completed, Guaranteed: true}, nil
}

// modifyCached updates a live rule in cached mode: action-only changes
// rewrite both tiers in place (covers are unaffected — their action is
// always the punt); priority or match changes become delete + insert.
func (a *Agent) modifyCached(now time.Duration, r classifier.Rule) (Result, error) {
	a.advance(now)
	old, _, ok := a.soft.Get(r.ID)
	if !ok {
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownRule, r.ID)
	}
	a.metrics.Modifies++
	a.o.event(now, obs.EvModify, 0, uint64(r.ID), 0, 0)
	if old.Priority == r.Priority && old.Match == r.Match {
		total, _ := a.soft.UpdateAction(r.ID, r.Action)
		completed := now + total
		if st, resident := a.rules[r.ID]; resident {
			tbl := a.shadow
			if st.place == placeMain {
				tbl = a.main
			}
			for _, pid := range st.partIDs {
				if cost, ok2 := tbl.ModifyAction(pid, r.Action); ok2 {
					total += cost
					completed = a.sw.Submit(now, cost)
				}
			}
			st.original.Action = r.Action
			if st.place == placeMain {
				// Keep the overlap index in sync.
				a.mainIndex.Delete(r.Match.Dst, r.ID)
				a.mainIndex.Insert(st.original)
			}
			a.residentIndex.Update(r.Match.Dst, st.original)
		}
		upd := old
		upd.Action = r.Action
		a.retrackLogical(upd)
		a.o.recordModify(total)
		return Result{Latency: total, Completed: completed, Guaranteed: true}, nil
	}
	// Priority/match change: delete + insert.
	if _, err := a.deleteCached(now, r.ID); err != nil {
		return Result{}, err
	}
	return a.insertCached(now, r)
}

// --- promotion / demotion ------------------------------------------------

// promoteLocked installs a software rule into the hardware tier through the
// regular Gate Keeper routing (bypass/shadow/main/redundant), under its
// original seq so tie-breaking is preserved. Requires a.mu held
// exclusively.
func (a *Agent) promoteLocked(now time.Duration, id classifier.RuleID) error {
	r, seq, ok := a.soft.Get(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRule, id)
	}
	if _, resident := a.rules[id]; resident {
		return nil
	}
	// The rule's own covers become redundant the moment it is resident —
	// drop them first so it does not partition against them.
	a.removeCoversFor(now, id)
	a.promoting = true
	_, err := a.insertSeq(now, r, seq)
	a.promoting = false
	if err != nil {
		// Hardware full: restore the shield and report.
		a.ensureCoversFor(now, r, seq)
		return err
	}
	a.residentIndex.Insert(r)
	a.residentCount++
	a.cmgr.NotePromotion()
	// Software-only rules that beat the new resident now need shielding.
	a.shieldSoftOnlyOverlapping(now, r.Match)
	return nil
}

// demoteLocked evicts a resident rule from the hardware tier (it stays
// authoritative in the software tier) and shields it with covers if it
// still beats some resident. Requires a.mu held exclusively.
func (a *Agent) demoteLocked(now time.Duration, id classifier.RuleID) {
	st, resident := a.rules[id]
	if !resident {
		return
	}
	r, seq, ok := a.soft.Get(id)
	if !ok {
		return // not a controller rule; never demote covers this way
	}
	dst := st.original.Match.Dst
	a.removePhysical(now, st)
	delete(a.rules, id)
	a.recycleRuleState(st)
	a.residentIndex.Delete(dst, id)
	a.residentCount--
	a.cmgr.NoteDemotion()
	a.ensureCoversFor(now, r, seq)
}

// --- cover maintenance ---------------------------------------------------

// coversNeeded reports whether software-only rule h (at seq) overlaps and
// beats at least one hardware-resident rule — the condition under which an
// unshielded h would be masked by the hardware tier.
func (a *Agent) coversNeeded(h classifier.Rule, seq uint64) bool {
	return a.residentIndex.OverlapsWhere(h.Match, func(res classifier.Rule) bool {
		return !a.beats(res, h.Priority, seq)
	})
}

// ensureCoversFor shields a software-only rule with cover entries when it
// needs them and has none. An existing cover set always spans the rule's
// whole match (CoverFor's invariant), so it never needs widening.
func (a *Agent) ensureCoversFor(now time.Duration, h classifier.Rule, seq uint64) {
	if _, resident := a.rules[h.ID]; resident {
		return
	}
	if len(a.covers[h.ID]) > 0 {
		return
	}
	if !a.coversNeeded(h, seq) {
		return
	}
	a.installCovers(now, h, seq)
}

// shieldSoftOnlyOverlapping ensures covers for every software-only rule
// overlapping m (called after a new resident appears inside m).
func (a *Agent) shieldSoftOnlyOverlapping(now time.Duration, m classifier.Match) {
	over := a.soft.Overlapping(m)
	sort.Slice(over, func(i, j int) bool { return over[i].ID < over[j].ID })
	for _, h := range over {
		if _, resident := a.rules[h.ID]; resident {
			continue
		}
		if _, seq, ok := a.soft.Get(h.ID); ok {
			a.ensureCoversFor(now, h, seq)
		}
	}
}

// installCovers writes h's cover entries into the main table: pieces from
// classifier.CoverFor aligned to the beaten residents (capped at
// MaxCoverParts, falling back to one exact-match cover), each at h's
// (priority, seq) with the punt action. If the main table cannot hold the
// covers, the beaten residents are demoted instead — with them gone, h no
// longer needs a shield at all.
func (a *Agent) installCovers(now time.Duration, h classifier.Rule, seq uint64) {
	var deps []classifier.Rule
	for _, res := range a.residentIndex.Overlapping(h.Match) {
		if !a.beats(res, h.Priority, seq) {
			deps = append(deps, res)
		}
	}
	regions := classifier.CoverFor(h, deps)
	if len(regions) > a.cacheCfg.MaxCoverParts {
		regions = []classifier.Match{h.Match}
	}
	installed := make([]classifier.RuleID, 0, len(regions))
	for _, m := range regions {
		cid := a.nextCoverID
		cover := classifier.Rule{
			ID:       cid,
			Match:    m,
			Priority: h.Priority,
			Action:   classifier.Action{Type: classifier.ActionGotoNext},
		}
		cost, err := a.main.InsertRanked(cover, seq)
		if err != nil {
			// Main table full. Unwind the partial shield, then make the
			// shield unnecessary by demoting every resident h beats. The
			// recursion terminates: each demotion strictly shrinks the
			// resident set.
			a.removeCoverEntries(now, installed)
			a.cmgr.NoteCoverRemovals(len(installed))
			for _, d := range deps {
				a.demoteLocked(now, d.ID)
			}
			return
		}
		a.nextCoverID++
		a.sw.Submit(now, cost)
		a.mainIndex.Insert(cover)
		a.rules[cid] = &ruleState{original: cover, seq: seq, place: placeMain, partIDs: []classifier.RuleID{cid}}
		// Shadow rules the cover beats must be re-cut against it, exactly
		// as for any main-table insert, or shadow-first lookup would let
		// them mask the punt.
		a.repairShadowAfterMainInsert(now, cover)
		installed = append(installed, cid)
	}
	a.covers[h.ID] = installed
	a.cmgr.NoteCoverInstalls(len(installed))
}

// removeCoversFor drops the cover entries shielding a rule.
func (a *Agent) removeCoversFor(now time.Duration, owner classifier.RuleID) {
	ids := a.covers[owner]
	if len(ids) == 0 {
		return
	}
	a.removeCoverEntries(now, ids)
	a.cmgr.NoteCoverRemovals(len(ids))
	delete(a.covers, owner)
}

func (a *Agent) removeCoverEntries(now time.Duration, ids []classifier.RuleID) {
	for _, cid := range ids {
		st, ok := a.rules[cid]
		if !ok {
			continue
		}
		a.removePhysical(now, st)
		delete(a.rules, cid)
		a.recycleRuleState(st)
	}
}

// --- rebalance -----------------------------------------------------------

// rebalanceLocked is the cache manager's periodic pass (driven by Tick):
// advance the recency epoch, rank every rule under the configured policy,
// demote residents that fell out of the top Capacity, promote the rules
// that rose into it (bounded by MaxMovesPerRebalance), and run cover
// hygiene — install shields that became necessary, drop ones that no
// longer are. Requires a.mu held exclusively.
func (a *Agent) rebalanceLocked(now time.Duration) {
	if a.needsReconcile {
		// Promotions re-install existing IDs into hardware, unsafe while
		// the physical tables may have diverged (orphans from a cut
		// migration). The pass after Reconcile catches up.
		return
	}
	epoch := a.cmgr.AdvanceEpoch()
	a.cmgr.FoldSamples(epoch, a.originalOf)
	rules := a.soft.Rules() // ID order: deterministic ranking input

	type cand struct {
		id    classifier.RuleID
		score float64
	}
	cands := make([]cand, 0, len(rules))
	for _, r := range rules {
		slots := 1
		if st, resident := a.rules[r.ID]; resident {
			if n := len(st.partIDs); n > 0 {
				slots = n
			}
		} else if n := len(a.covers[r.ID]); n > 0 {
			slots = n
		}
		cands = append(cands, cand{id: r.ID, score: a.cmgr.Score(a.cmgr.Stats(r.ID), slots)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	capacity := a.cacheCfg.Capacity
	want := make(map[classifier.RuleID]bool, capacity)
	for i := 0; i < len(cands) && i < capacity; i++ {
		want[cands[i].id] = true
	}

	moves := 0
	// Demotions first (they free capacity), in ID order for determinism.
	for _, r := range rules {
		if moves >= a.cacheCfg.MaxMovesPerRebalance {
			break
		}
		if _, resident := a.rules[r.ID]; resident && !want[r.ID] {
			a.demoteLocked(now, r.ID)
			moves++
		}
	}
	// Promotions in score order, best first.
	for _, c := range cands {
		if moves >= a.cacheCfg.MaxMovesPerRebalance || !want[c.id] {
			break // cands is sorted: past the capacity cut, nothing is wanted
		}
		if _, resident := a.rules[c.id]; resident {
			continue
		}
		if a.residentCount >= capacity {
			break
		}
		a.promoteLocked(now, c.id)
		moves++ // failed promotions still consumed hardware work
	}

	// Cover hygiene: resident-set changes (including plain deletes since
	// the last pass) may have stranded stale covers or left new
	// software-only winners unshielded.
	for _, r := range rules {
		if _, resident := a.rules[r.ID]; resident {
			continue
		}
		_, seq, ok := a.soft.Get(r.ID)
		if !ok {
			continue // deleted during this pass
		}
		needed := a.coversNeeded(r, seq)
		if needed && len(a.covers[r.ID]) == 0 {
			a.installCovers(now, r, seq)
		} else if !needed && len(a.covers[r.ID]) > 0 {
			a.removeCoversFor(now, r.ID)
		}
	}
	a.refreshViewLocked()
}

// --- public surface ------------------------------------------------------

// Cached reports whether the agent runs the two-tier caching hierarchy.
func (a *Agent) Cached() bool { return a.soft != nil }

// CacheStats returns the caching hierarchy's aggregate metrics (the zero
// Snapshot when Config.Cache is not set).
func (a *Agent) CacheStats() rulecache.Snapshot {
	if a.cmgr == nil {
		return rulecache.Snapshot{}
	}
	return a.cmgr.Snapshot()
}

// CacheResident reports how many controller rules are currently resident
// in the hardware tier (cached mode; 0 otherwise).
func (a *Agent) CacheResident() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.residentCount
}

// originalOf maps a physical entry ID (which may be a partition fragment)
// to its original rule ID, for sample-ring folds.
func (a *Agent) originalOf(id classifier.RuleID) classifier.RuleID {
	if o, isFrag := a.pmap.OriginalOf(id); isFrag {
		return o
	}
	return id
}

// RuleHits returns the recorded hit count for a rule (cached mode; 0
// otherwise). It folds pending hardware-tier samples first, so it takes
// the exclusive lock.
func (a *Agent) RuleHits(id classifier.RuleID) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cmgr == nil {
		return 0
	}
	a.cmgr.FoldSamples(a.cmgr.EpochNow(), a.originalOf)
	if s := a.cmgr.Stats(id); s != nil {
		return s.Hits()
	}
	return 0
}

// Rebalance runs one promotion/demotion pass immediately (cached mode;
// normally driven by Tick). Exposed for tests and experiments that step
// virtual time themselves.
func (a *Agent) Rebalance(now time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advance(now)
	if a.soft != nil {
		a.rebalanceLocked(now)
	}
}

// RegisterCacheMetrics exposes the hierarchy's hermes_cache_* metrics on an
// obs registry (no-op when the agent is uncached).
func (a *Agent) RegisterCacheMetrics(reg *obs.Registry) {
	if a.cmgr != nil {
		a.cmgr.Register(reg)
	}
}
