package intent

import (
	"container/heap"
	"sync"
	"time"
)

// RecordKind names one reconciler trace event.
type RecordKind uint8

// The trace event kinds.
const (
	// TraceDirty: a trigger marked the switch pending.
	TraceDirty RecordKind = iota + 1
	// TraceRequeue: a reconcile failed (or found the switch unready) and
	// the key was requeued with backoff. Aux is the attempt number, Lag
	// the chosen delay.
	TraceRequeue
	// TraceConverge: a reconcile drove the switch to zero diff. Gen is
	// the covered store generation, Aux the plan size, Lag the time from
	// first dirty mark to convergence.
	TraceConverge
	// TraceLease: the controller took the shard named by Aux.
	TraceLease
	// TraceHalt: a permanent error stopped the key. Aux is the attempt.
	TraceHalt
)

func (k RecordKind) String() string {
	switch k {
	case TraceDirty:
		return "dirty"
	case TraceRequeue:
		return "requeue"
	case TraceConverge:
		return "converge"
	case TraceLease:
		return "lease"
	case TraceHalt:
		return "halt"
	default:
		return "unknown"
	}
}

// Record is one reconciler trace event on the controller's clock.
type Record struct {
	At     time.Duration
	Kind   RecordKind
	Switch string
	Who    string // controller identity
	Gen    uint64
	Aux    uint64
	Lag    time.Duration
}

// Trace accumulates reconciler events. Its Digest folds every field of
// every record into one value, so two runs converged "the same way" —
// same triggers, same requeues, same lease handoffs, same instants —
// exactly when their digests match. That is the reproducibility check the
// chaos experiment gates on.
type Trace struct {
	mu   sync.Mutex
	recs []Record
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) add(r Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
}

// Records returns a copy of the accumulated events in append order.
func (t *Trace) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Record(nil), t.recs...)
}

// Len returns the number of accumulated events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// Digest folds the full trace into one FNV-1a value: identical digests ⇔
// byte-identical event sequences.
func (t *Trace) Digest() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	str := func(s string) {
		word(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	for _, r := range t.recs {
		word(uint64(r.At))
		word(uint64(r.Kind))
		str(r.Switch)
		str(r.Who)
		word(r.Gen)
		word(r.Aux)
		word(uint64(r.Lag))
	}
	return h
}

// VirtualClock is a deterministic single-goroutine time source for driven
// controllers: Now reads virtual time, After schedules callbacks on it,
// and AdvanceTo fires due callbacks in (time, schedule-order) sequence.
// It is intentionally NOT safe for concurrent use — the whole point is
// that a harness owning the only goroutine replays identically.
type VirtualClock struct {
	now    time.Duration
	timers vtimerHeap
	seq    uint64
}

// NewVirtualClock starts at time zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Duration { return c.now }

// After schedules fn to run when virtual time reaches now+d.
func (c *VirtualClock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.seq++
	heap.Push(&c.timers, vtimer{at: c.now + d, seq: c.seq, fn: fn})
}

// NextTimer reports the earliest pending callback's due time.
func (c *VirtualClock) NextTimer() (time.Duration, bool) {
	if len(c.timers) == 0 {
		return 0, false
	}
	return c.timers[0].at, true
}

// AdvanceTo moves virtual time forward to t, firing every callback due on
// the way in deterministic order. Callbacks may schedule further
// callbacks; those due at or before t fire in the same sweep. Time never
// moves backward.
func (c *VirtualClock) AdvanceTo(t time.Duration) {
	for len(c.timers) > 0 && c.timers[0].at <= t {
		tm := heap.Pop(&c.timers).(vtimer)
		if tm.at > c.now {
			c.now = tm.at
		}
		tm.fn()
	}
	if t > c.now {
		c.now = t
	}
}

// Advance moves virtual time forward by d.
func (c *VirtualClock) Advance(d time.Duration) { c.AdvanceTo(c.now + d) }

type vtimer struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type vtimerHeap []vtimer

func (h vtimerHeap) Len() int { return len(h) }
func (h vtimerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h vtimerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *vtimerHeap) Push(x any)   { *h = append(*h, x.(vtimer)) }
func (h *vtimerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
