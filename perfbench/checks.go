package main

import (
	"errors"
	"fmt"
	"time"

	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/workload"
)

// tickInterval is the agents' Rule Manager period (core.Config default).
const tickInterval = 10 * time.Millisecond

// The output checks gate every run: a run whose outputs are wrong prints
// no metrics and exits non-zero.

// checkOutcomes verifies that every scheduled op finished exactly once and
// succeeded, and returns the reference models built from them.
func checkOutcomes(in *inputs, c *collector) ([]*model, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	if c.unexpected > 0 {
		errs = append(errs, fmt.Errorf("%d completions matched no outstanding op", c.unexpected))
	}
	failed := 0
	for i := range c.recs {
		rec := &c.recs[i]
		switch {
		case rec.finished != 1:
			errs = append(errs, fmt.Errorf("op %d (%s rule %d) finished %d times", i, in.Ops[i].Kind, in.Ops[i].Rule.ID, rec.finished))
		case rec.err != nil:
			if failed++; failed <= 3 {
				errs = append(errs, fmt.Errorf("op %d (%s rule %d on switch %d): %w", i, in.Ops[i].Kind, in.Ops[i].Rule.ID, in.Ops[i].Switch, rec.err))
			}
		}
		if len(errs) > 8 {
			break
		}
	}
	if failed > 3 {
		errs = append(errs, fmt.Errorf("%d failed ops in all", failed))
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	models := make([]*model, in.Spec.Switches)
	for sw := range models {
		models[sw] = newModel(sw).applyAll(in.Ops)
	}
	return models, nil
}

// checkLookups compares a quiesced sample of the agent's lookups with the
// linear first-match reference: a packet inside each of (up to) 2048 live
// rules plus 512 uniformly random packets.
func checkLookups(a *core.Agent, m *model, seed int64) error {
	rng := workload.SubStream(seed, 0xc4ec+uint64(m.sw))
	live := m.live()
	var pkts []packet
	for i := 0; i < 2048 && len(live) > 0; i++ {
		r := live[rng.Intn(len(live))]
		pkts = append(pkts, packet{
			Dst: r.Match.Dst.Addr | rng.Uint32()&^r.Match.Dst.Mask(),
			Src: r.Match.Src.Addr | rng.Uint32()&^r.Match.Src.Mask(),
		})
	}
	for i := 0; i < 512; i++ {
		pkts = append(pkts, packet{Dst: rng.Uint32(), Src: rng.Uint32()})
	}
	bad := 0
	var first error
	for _, p := range pkts {
		want, wok := m.lookup(p.Dst, p.Src)
		got, gok := a.Lookup(p.Dst, p.Src)
		if wok != gok || (wok && got.Action != want.Action) {
			if bad++; first == nil {
				first = fmt.Errorf("switch %d packet %08x/%08x: agent %v (found %v), reference rule %d %v (found %v)",
					m.sw, p.Dst, p.Src, got.Action, gok, want.ID, want.Action, wok)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d lookups differ from the reference; first: %w", bad, len(pkts), first)
	}
	return nil
}

// drain deletes every rule the models still hold, through the fleet, and
// waits for the deletes and a barrier.
func (s *system) drain(models []*model) error {
	var errs []error
	for sw, m := range models {
		var chans []<-chan fleet.OpResult
		for _, r := range m.live() {
			ch, err := s.fl.DeleteAsync(s.ids[sw], r.ID)
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			if res := <-ch; res.Err != nil && len(errs) < 3 {
				errs = append(errs, fmt.Errorf("drain delete of rule %d on switch %d: %w", res.RuleID, sw, res.Err))
			}
		}
	}
	if err := s.fl.Barrier(); err != nil {
		errs = append(errs, err)
	}
	// Let the Rule Manager tick past any migration still in flight, so the
	// end-state check sees its physical writes.
	time.Sleep(3 * tickInterval)
	return errors.Join(errs...)
}

// checkDrained verifies the end state: no XID awaits a reply, both tables
// of every agent are empty, and every agent passes CheckConsistency.
func (s *system) checkDrained() error {
	var errs []error
	deadline := time.Now().Add(2 * time.Second)
	for s.tap.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond) // a health probe may be in flight
	}
	if n := s.tap.outstanding(); n > 0 {
		errs = append(errs, fmt.Errorf("%d XIDs still outstanding", n))
	}
	for sw := range s.srvs {
		a := s.agent(sw)
		if sh, mn := a.ShadowOccupancy(), a.MainOccupancy(); sh != 0 || mn != 0 {
			errs = append(errs, fmt.Errorf("switch %d not empty after drain: shadow %d, main %d", sw, sh, mn))
		}
		if err := a.CheckConsistency(); err != nil {
			errs = append(errs, fmt.Errorf("switch %d: %w", sw, err))
		}
	}
	return errors.Join(errs...)
}
