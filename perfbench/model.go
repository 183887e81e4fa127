package main

import (
	"fmt"
	"sort"

	"hermes/internal/classifier"
)

// model is the reference for one switch: the rules the benchmark has
// installed there, each with its insertion sequence number. Its lookup is a
// linear first-match scan with the agent's documented tie-break — highest
// priority wins, earlier insertion breaks ties.
type model struct {
	sw    int
	seq   uint64
	rules map[classifier.RuleID]modelRule
	order []modelRule // first-match order cache; nil when stale
}

type modelRule struct {
	rule classifier.Rule
	seq  uint64
}

// newModel starts an empty reference for switch sw.
func newModel(sw int) *model {
	return &model{sw: sw, rules: make(map[classifier.RuleID]modelRule)}
}

// apply records one successful flow-mod. An op the agent must reject (an
// insert of a live ID, an update of an unknown one) is an error.
func (m *model) apply(op schedOp) error {
	m.order = nil
	id := op.Rule.ID
	cur, live := m.rules[id]
	switch op.Kind {
	case opInsert:
		if live {
			return fmt.Errorf("insert of live rule %d", id)
		}
		m.seq++
		m.rules[id] = modelRule{rule: op.Rule, seq: m.seq}
	case opModify:
		if !live {
			return fmt.Errorf("modify of unknown rule %d", id)
		}
		if cur.rule.Match != op.Rule.Match || cur.rule.Priority != op.Rule.Priority {
			// The agent re-inserts on a match or priority change.
			m.seq++
			cur.seq = m.seq
		}
		cur.rule = op.Rule
		m.rules[id] = cur
	case opDelete:
		if !live {
			return fmt.Errorf("delete of unknown rule %d", id)
		}
		delete(m.rules, id)
	}
	return nil
}

// applyAll applies the switch's share of ops, in order, and returns m.
// Generated schedules are valid by construction, so an error is a bug.
func (m *model) applyAll(ops []schedOp) *model {
	for _, op := range ops {
		if op.Switch != m.sw {
			continue
		}
		if err := m.apply(op); err != nil {
			panic(err)
		}
	}
	return m
}

// live returns the installed rules sorted by ID.
func (m *model) live() []classifier.Rule {
	out := make([]classifier.Rule, 0, len(m.rules))
	for _, mr := range m.rules {
		out = append(out, mr.rule)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sorted returns the installed rules in first-match order, cached until
// the next apply.
func (m *model) sorted() []modelRule {
	if m.order == nil {
		m.order = make([]modelRule, 0, len(m.rules))
		for _, mr := range m.rules {
			m.order = append(m.order, mr)
		}
		sort.Slice(m.order, func(i, j int) bool {
			a, b := m.order[i], m.order[j]
			if a.rule.Priority != b.rule.Priority {
				return a.rule.Priority > b.rule.Priority
			}
			return a.seq < b.seq
		})
	}
	return m.order
}

// firstMatch returns the installed rules in first-match order.
func (m *model) firstMatch() []classifier.Rule {
	order := m.sorted()
	out := make([]classifier.Rule, len(order))
	for i, mr := range order {
		out[i] = mr.rule
	}
	return out
}

// lookup is the linear first-match reference.
func (m *model) lookup(dst, src uint32) (classifier.Rule, bool) {
	for _, mr := range m.sorted() {
		if mr.rule.Match.MatchesPacket(dst, src) {
			return mr.rule, true
		}
	}
	return classifier.Rule{}, false
}
