package core

import (
	"sort"
	"sync/atomic"

	"hermes/internal/classifier"
	"hermes/internal/rulecache"
)

// This file implements the agent's lock-free read path: an immutable
// snapshot of the carved pipeline (shadow index, main index, and — when
// TrackLogical is on — the reference monolithic table) published behind an
// atomic pointer. Packet lookups validate the snapshot with three atomic
// generation loads and, when it is current, never touch the agent lock at
// all; control-plane writers invalidate it implicitly just by mutating the
// tables (every tcam.Table mutation bumps its generation counter, including
// out-of-band ones like a crash harness wiping the switch directly).
//
// Snapshots are rebuilt lazily with hysteresis: a reader only pays the
// O(occupancy) rebuild after viewRebuildAfter consecutive lookups observe
// the same (changed) generations — i.e. the tables have quiesced. Under a
// write-heavy phase readers instead fall back to a read-locked indexed
// lookup on the live tables, which is already off the O(n) scan path.

// viewRebuildAfter is the number of consecutive stale read-path entries (at
// stable generations) after which a reader rebuilds the snapshot. Low
// enough that a quiesced table becomes lock-free almost immediately, high
// enough that insert/lookup alternation never rebuilds per packet.
const viewRebuildAfter = 4

// agentView is one immutable snapshot of the agent's lookup state. All
// fields are written before the view is published and never after.
type agentView struct {
	shadowGen  uint64
	mainGen    uint64
	logicalGen uint64
	softGen    uint64
	shadow     *classifier.RuleIndex
	main       *classifier.RuleIndex
	// logical is non-nil only when cfg.TrackLogical is set.
	logical *classifier.RuleIndex
	// soft, cache and hits are set only in cached mode (Config.Cache):
	// the software-tier index, the hit-stats manager, and the software
	// rules' stats records.
	soft  *classifier.RuleIndex
	cache *rulecache.Manager
	hits  map[classifier.RuleID]*rulecache.RuleStats
}

// lookup resolves a packet against the snapshot exactly as the carved
// pipeline would: shadow slice first, then main — and, in cached mode,
// finishes cover punts and hardware misses in the software tier.
func (v *agentView) lookup(dst, src uint32) (classifier.Rule, bool) {
	r, ok := v.shadow.Lookup(dst, src)
	if !ok {
		r, ok = v.main.Lookup(dst, src)
	}
	if v.soft == nil {
		return r, ok
	}
	if ok && r.ID < coverIDBase {
		// Off sample points (the common case) the hardware-tier hit touches
		// no shared state at all; sample points push the entry ID into the
		// manager's ring for the next tick's fold. Either way the stats map
		// stays off this path, keeping it within the <5% overhead budget.
		v.cache.SampleHW(dst, src, r.ID)
		return r, true
	}
	if sr, sok := v.soft.Lookup(dst, src); sok {
		if v.cache.SampleSoft(dst, src) {
			if s := v.hits[sr.ID]; s != nil {
				s.RecordHit(v.cache.EpochNow())
			}
		}
		return sr, true
	}
	v.cache.RecordMiss()
	return classifier.Rule{}, false
}

// viewStaleness tracks, with benign-racy atomics, how many consecutive
// read-path entries missed the snapshot while the table generations stayed
// put. Concurrent readers may slightly over- or under-count; the only
// consequence is a rebuild happening one read earlier or later.
type viewStaleness struct {
	shadowGen  atomic.Uint64
	mainGen    atomic.Uint64
	logicalGen atomic.Uint64
	softGen    atomic.Uint64
	streak     atomic.Uint32
}

// observe records one stale read at the given generations and returns the
// current streak length.
func (s *viewStaleness) observe(sg, mg, lg, fg uint64) int {
	if s.shadowGen.Load() != sg || s.mainGen.Load() != mg ||
		s.logicalGen.Load() != lg || s.softGen.Load() != fg {
		s.shadowGen.Store(sg)
		s.mainGen.Store(mg)
		s.logicalGen.Store(lg)
		s.softGen.Store(fg)
		s.streak.Store(1)
		return 1
	}
	return int(s.streak.Add(1))
}

// freshView returns a snapshot valid for the current table generations,
// rebuilding one if the hysteresis threshold has been reached, or nil when
// the caller should use the live (read-locked) tables instead. Must be
// called with at least the read lock held — the rebuild reads table
// contents, which only the lock makes stable.
func (a *Agent) freshView() *agentView {
	if a.cfg.LinearLookup {
		return nil
	}
	sg, mg, lg, fg := a.shadow.Gen(), a.main.Gen(), a.logicalGen.Load(), a.softGen()
	if v := a.view.Load(); v != nil && v.shadowGen == sg && v.mainGen == mg &&
		v.logicalGen == lg && v.softGen == fg {
		return v
	}
	if a.stale.observe(sg, mg, lg, fg) < viewRebuildAfter {
		return nil
	}
	v := a.buildView(sg, mg, lg, fg)
	a.view.Store(v)
	return v
}

// buildView constructs a fresh immutable snapshot for the given
// generations. Callers hold at least the read lock and publish the view
// themselves (write before Store, never after).
func (a *Agent) buildView(sg, mg, lg, fg uint64) *agentView {
	v := &agentView{
		shadowGen: sg,
		mainGen:   mg,
		softGen:   fg,
		shadow:    classifier.NewRuleIndex(a.shadow.Rules()),
		main:      classifier.NewRuleIndex(a.main.Rules()),
	}
	if a.cfg.TrackLogical {
		v.logicalGen = lg
		v.logical = classifier.NewRuleIndex(a.logicalFirstMatchOrder())
	}
	if a.soft != nil {
		rules := a.soft.FirstMatchOrder()
		v.soft = classifier.NewRuleIndex(rules)
		v.cache = a.cmgr
		v.hits = a.buildHitMap(rules)
	}
	return v
}

// refreshViewLocked republishes the snapshot at the end of a batch — the
// amortized replacement for per-op rebuild hysteresis: one rebuild covers
// every op in the batch. It keeps the lazy economics of freshView: until a
// reader has forced a first snapshot into existence there is nothing to
// refresh (pure write workloads stay rebuild-free), and a view already at
// the current generations is left untouched. Requires a.mu held
// exclusively.
func (a *Agent) refreshViewLocked() {
	if a.cfg.LinearLookup {
		return
	}
	v := a.view.Load()
	if v == nil {
		return
	}
	sg, mg, lg, fg := a.shadow.Gen(), a.main.Gen(), a.logicalGen.Load(), a.softGen()
	if v.shadowGen == sg && v.mainGen == mg && v.logicalGen == lg && v.softGen == fg {
		return
	}
	a.view.Store(a.buildView(sg, mg, lg, fg))
}

// logicalFirstMatchOrder returns a copy of the reference monolithic table
// sorted into first-match order: priority descending, insertion order
// breaking ties (the stable sort preserves it).
func (a *Agent) logicalFirstMatchOrder() []classifier.Rule {
	rules := append([]classifier.Rule(nil), a.logical...)
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Priority > rules[j].Priority })
	return rules
}
