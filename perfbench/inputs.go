package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/loadgen"
	"hermes/internal/tcam"
	"hermes/internal/workload"
)

// opKind is the kind of one flow-mod the benchmark issues.
type opKind uint8

const (
	opInsert opKind = iota + 1
	opModify
	opDelete
)

func (k opKind) String() string {
	switch k {
	case opInsert:
		return "insert"
	case opModify:
		return "modify"
	case opDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// schedOp is one scheduled flow-mod: at offset At from the start of the
// timed window, apply Kind to Rule on switch Switch.
type schedOp struct {
	At     time.Duration
	Switch int
	Kind   opKind
	Class  uint8
	Rule   classifier.Rule
}

// packet is one lookup key.
type packet struct{ Dst, Src uint32 }

// spec fixes one workload's shape. Everything a run does follows from the
// spec, the seed and the run length.
type spec struct {
	Name      string
	Switches  int
	WireBatch bool
	Profile   *tcam.Profile
	Guarantee time.Duration

	// Flow-mod stream.
	Source       string        // "loadgen" or "microbench"
	InsertFactor float64       // per-switch insert rate as a multiple of Agent.MaxRate (loadgen)
	InsertRate   float64       // per-switch insert rate, inserts/s (microbench)
	Overlap      float64       // MicroBench overlap fraction
	Hold         time.Duration // insert → delete (loadgen: since last arrival)
	ClassWeights []int         // loadgen classes; class 0 is guaranteed
}

// The lookup trace: probePackets packets, a probeHitShare share of them
// aimed inside an installed rule.
const (
	probePackets  = 1 << 16
	probeHitShare = 0.97
)

// specs are the benchmark's workloads, in BENCHMARK.json order.
var specs = []*spec{
	{
		Name: "guaranteed-steady", Switches: 2, Profile: tcam.Pica8P3290, Guarantee: 5 * time.Millisecond,
		Source: "loadgen", InsertFactor: 0.8, Hold: time.Second, ClassWeights: []int{3, 1},
	},
	{
		Name: "overload-batch", Switches: 2, WireBatch: true, Profile: tcam.Pica8P3290, Guarantee: 5 * time.Millisecond,
		Source: "microbench", InsertRate: 4000, Overlap: 0.5, Hold: 250 * time.Millisecond,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// idStride separates the rule-ID ranges of different switches.
const idStride = 1 << 32

// inputs is everything a run feeds the system, generated from the seed.
type inputs struct {
	Spec    *spec
	Seed    int64
	Window  time.Duration // length of the timed window
	MaxRate float64       // Agent.MaxRate for the spec's switch and guarantee
	Ops     []schedOp     // timed flow-mods, ordered by At
	Probe   []packet      // lookup trace
	// Guarded holds the rules the agent guarantees (class 0); nil guards
	// every rule.
	Guarded map[classifier.RuleID]bool
}

// agentConfig is the agent configuration every switch of the workload runs.
func (in *inputs) agentConfig() core.Config {
	cfg := core.Config{Guarantee: in.Spec.Guarantee}
	if in.Guarded != nil {
		g := in.Guarded
		cfg.Predicate = func(r classifier.Rule) bool { return g[r.ID] }
	}
	return cfg
}

// maxRate is Agent.MaxRate for a fresh agent of the spec: the admitted
// guaranteed-insertion rate the model derives from the switch profile and
// the guarantee (Equation 2).
func maxRate(s *spec) (float64, error) {
	a, err := core.New(tcam.NewSwitch("probe", s.Profile), core.Config{Guarantee: s.Guarantee})
	if err != nil {
		return 0, err
	}
	return a.MaxRate(), nil
}

// generate builds a run's inputs from the seed alone.
func generate(s *spec, seed int64, window time.Duration) (*inputs, error) {
	lam, err := maxRate(s)
	if err != nil {
		return nil, err
	}
	in := &inputs{Spec: s, Seed: seed, Window: window, MaxRate: lam}
	if s.Source == "loadgen" {
		if err := in.genLoadgen(); err != nil {
			return nil, err
		}
	} else {
		in.genMicro()
	}
	sort.SliceStable(in.Ops, func(i, j int) bool { return in.Ops[i].At < in.Ops[j].At })
	in.genProbe()
	return in, nil
}

// genLoadgen replays a loadgen Poisson schedule per switch: Zipf
// re-arrivals become modifies, the hold produces deletes, and the insert
// rate is InsertFactor × MaxRate. Generate sets the arrival rate, so a
// pilot schedule measures the insert share and the real one is rescaled
// to hit the insert target.
func (in *inputs) genLoadgen() error {
	s := in.Spec
	target := s.InsertFactor * in.MaxRate
	in.Guarded = make(map[classifier.RuleID]bool)
	for sw := 0; sw < s.Switches; sw++ {
		cfg := loadgen.Config{
			Rate:         target,
			Hold:         s.Hold,
			ClassWeights: s.ClassWeights,
			Seed:         workload.SubSeed(in.Seed, uint64(sw+1)),
			FirstID:      classifier.RuleID(1 + sw*idStride),
		}
		var sched *loadgen.Schedule
		for pass := 0; pass < 4; pass++ {
			cfg.Flows = int(cfg.Rate*in.Window.Seconds()) + 1
			cfg.Distinct = uint64(4 * cfg.Flows)
			var err error
			if sched, err = loadgen.Generate(cfg); err != nil {
				return err
			}
			inserts := 0
			for _, e := range sched.Events {
				if e.Op == loadgen.OpInsert && e.At <= in.Window {
					inserts++
				}
			}
			if inserts == 0 {
				return fmt.Errorf("%s: pilot schedule has no inserts", s.Name)
			}
			cfg.Rate *= target * in.Window.Seconds() / float64(inserts)
		}
		for _, e := range sched.Events {
			if e.At > in.Window {
				continue // outlives the window: deleted during drain
			}
			kind := map[loadgen.OpKind]opKind{loadgen.OpInsert: opInsert, loadgen.OpModify: opModify, loadgen.OpDelete: opDelete}[e.Op]
			in.Ops = append(in.Ops, schedOp{At: e.At, Switch: sw, Kind: kind, Class: e.Class, Rule: e.Rule})
			if e.Op == loadgen.OpInsert && e.Class == 0 {
				in.Guarded[e.Rule.ID] = true
			}
		}
	}
	return nil
}

// uniqueAction gives a rule an action that identifies it, so a lookup's
// answer names the rule that matched even when the agent answers with one
// of its partition fragments.
func uniqueAction(r classifier.Rule) classifier.Rule {
	r.Action = classifier.Action{Type: classifier.ActionForward, Port: int(uint64(r.ID) & 0xFFFF)}
	return r
}

// genMicro replays workload.MicroBench rules per switch, Poisson at
// InsertRate, each deleted Hold after its insert.
func (in *inputs) genMicro() {
	s := in.Spec
	for sw := 0; sw < s.Switches; sw++ {
		n := int(s.InsertRate*in.Window.Seconds()*1.2) + 16
		rules := workload.MicroBench(workload.SubStream(in.Seed, uint64(sw+1)), workload.MicroBenchConfig{
			Rules: n, RatePerSec: s.InsertRate, OverlapFrac: s.Overlap,
			FirstID: classifier.RuleID(1 + sw*idStride),
		})
		for _, tr := range rules {
			if tr.At > in.Window {
				break
			}
			r := uniqueAction(tr.Rule)
			in.Ops = append(in.Ops, schedOp{At: tr.At, Switch: sw, Kind: opInsert, Rule: r})
			if del := tr.At + s.Hold; del <= in.Window {
				in.Ops = append(in.Ops, schedOp{At: del, Switch: sw, Kind: opDelete, Rule: classifier.Rule{ID: r.ID}})
			}
		}
	}
}

// genProbe builds the lookup trace: packets aimed inside rules drawn
// uniformly from those switch 0 holds at the end of the timed window, with
// a 1−HitShare complement of uniformly random packets. Uniform popularity
// spreads the cost over the whole table; a Zipf head let a few hot rules'
// trie depth set the throughput, which then swung by a third from seed to
// seed.
func (in *inputs) genProbe() {
	targets := newModel(0).applyAll(in.Ops).live()
	rng := workload.SubStream(in.Seed, 0x9b0be)
	in.Probe = make([]packet, probePackets)
	if len(targets) == 0 {
		for i := range in.Probe {
			in.Probe[i] = packet{Dst: rng.Uint32()}
		}
		return
	}
	for i := range in.Probe {
		if rng.Float64() >= probeHitShare {
			in.Probe[i] = packet{Dst: rng.Uint32(), Src: rng.Uint32()}
			continue
		}
		m := targets[rng.Intn(len(targets))].Match
		in.Probe[i] = packet{
			Dst: m.Dst.Addr | rng.Uint32()&^m.Dst.Mask(),
			Src: m.Src.Addr | rng.Uint32()&^m.Src.Mask(),
		}
	}
}

// digest is an FNV-1a hash over a canonical encoding of every generated
// input: equal digests mean byte-identical schedules and packet traces.
func (in *inputs) digest() uint64 {
	h := fnv.New64a()
	var b []byte
	rule := func(r classifier.Rule) {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
		b = binary.LittleEndian.AppendUint32(b, r.Match.Dst.Addr)
		b = append(b, r.Match.Dst.Len)
		b = binary.LittleEndian.AppendUint32(b, r.Match.Src.Addr)
		b = append(b, r.Match.Src.Len)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Priority))
		b = append(b, byte(r.Action.Type))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Action.Port))
	}
	for _, op := range in.Ops {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(op.At))
		b = append(b, byte(op.Switch), byte(op.Kind), op.Class)
		rule(op.Rule)
		h.Write(b)
	}
	for _, p := range in.Probe {
		b = binary.LittleEndian.AppendUint32(b[:0], p.Dst)
		b = binary.LittleEndian.AppendUint32(b, p.Src)
		h.Write(b)
	}
	return h.Sum64()
}

// counts tallies the timed ops by kind.
func (in *inputs) counts() (inserts, modifies, deletes int) {
	for _, op := range in.Ops {
		switch op.Kind {
		case opInsert:
			inserts++
		case opModify:
			modifies++
		case opDelete:
			deletes++
		}
	}
	return
}

// params is the workload-parameter block of the env record.
func (in *inputs) params() map[string]any {
	s := in.Spec
	ins, mods, dels := in.counts()
	p := map[string]any{
		"switches": s.Switches, "wire_batch": s.WireBatch, "profile": s.Profile.Name,
		"guarantee_ms": s.Guarantee.Seconds() * 1e3, "source": s.Source,
		"agent_max_rate_per_s": in.MaxRate, "window_s": in.Window.Seconds(),
		"inserts": ins, "modifies": mods, "deletes": dels,
		"insert_rate_per_switch": float64(ins) / in.Window.Seconds() / float64(s.Switches),
		"probe_packets":          len(in.Probe), "probe_hit_share": probeHitShare,
		"input_digest": fmt.Sprintf("%016x", in.digest()),
	}
	if s.Source == "loadgen" {
		p["insert_factor_of_max_rate"], p["hold_ms"], p["class_weights"] = s.InsertFactor, s.Hold.Milliseconds(), s.ClassWeights
	} else {
		p["overlap"], p["hold_ms"] = s.Overlap, s.Hold.Milliseconds()
	}
	return p
}
