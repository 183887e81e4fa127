package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
)

// system is one in-process deployment: an AgentServer per switch on a
// loopback listener, and one fleet holding one control connection per
// switch, with both ends of every connection tapped.
type system struct {
	in     *inputs
	tap    *tap
	col    *collector
	srvs   []*ofwire.AgentServer
	starts []time.Time // each server's virtual-time origin
	ids    []string
	fl     *fleet.Fleet
	serve  sync.WaitGroup
	// closing silences the servers' connection logs during teardown,
	// when the fleet's connections reset as expected.
	closing atomic.Bool
	// await bounds the wait for the last completion.
	await time.Duration
}

// startSystem brings the deployment up. It is the benchmark's set-up
// step. wrap, when non-nil, wraps each client connection outside its tap
// (tests use it to break the wire).
func startSystem(in *inputs, base time.Time, traced bool, wrap func(net.Conn) net.Conn) (*system, error) {
	s := &system{in: in, tap: newTap(base, traced, wrap), await: time.Minute}
	addrs := make(map[string]int)
	var switches []fleet.SwitchSpec
	for sw := 0; sw < in.Spec.Switches; sw++ {
		id := fmt.Sprintf("sw%d", sw)
		start := time.Now()
		srv, err := ofwire.NewAgentServer(id, in.Spec.Profile, in.agentConfig())
		if err != nil {
			s.close()
			return nil, err
		}
		srv.Logf = func(format string, args ...interface{}) {
			if !s.closing.Load() {
				log.Printf(format, args...)
			}
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.srvs, s.starts, s.ids = append(s.srvs, srv), append(s.starts, start), append(s.ids, id)
		s.serve.Add(1)
		go func(sw int) {
			defer s.serve.Done()
			srv.Serve(&tapListener{Listener: lis, t: s.tap, sw: sw}) //nolint:errcheck // returns nil once closed
		}(sw)
		addrs[lis.Addr().String()] = sw
		switches = append(switches, fleet.SwitchSpec{ID: id, Addr: lis.Addr().String()})
	}
	s.col = newCollector(in, base, s.ids)
	fl, err := fleet.New(fleet.Config{
		WireBatch: in.Spec.WireBatch,
		Dial:      s.tap.dial(addrs),
		OnResult:  s.col.onResult,
		OpTimeout: 10 * time.Second,
	}, switches)
	if err != nil {
		s.close()
		return nil, err
	}
	s.fl = fl
	return s, nil
}

// submit issues one op through the fleet's asynchronous entry points.
func (s *system) submit(op schedOp) error {
	var err error
	switch op.Kind {
	case opInsert:
		_, err = s.fl.InsertAsync(s.ids[op.Switch], op.Rule)
	case opModify:
		_, err = s.fl.ModifyAsync(s.ids[op.Switch], op.Rule)
	case opDelete:
		_, err = s.fl.DeleteAsync(s.ids[op.Switch], op.Rule.ID)
	}
	return err
}

// agent returns switch sw's agent.
func (s *system) agent(sw int) *core.Agent { return s.srvs[sw].Agent() }

// close tears everything down and waits for every goroutine it started.
func (s *system) close() {
	s.closing.Store(true)
	if s.fl != nil {
		s.fl.Close() //nolint:errcheck // teardown; the connections are loopback
	}
	for _, srv := range s.srvs {
		srv.Close() //nolint:errcheck // teardown
	}
	s.serve.Wait()
}

// tableStats sums TCAM operation counters over every slice of every
// switch. Call only after close: the tables are not safe to read while
// the servers run.
func (s *system) tableStats() tcam.TableStats {
	var t tcam.TableStats
	for _, srv := range s.srvs {
		for _, tb := range srv.Agent().Switch().Slices() {
			st := tb.Stats()
			t.Inserts += st.Inserts
			t.Deletes += st.Deletes
			t.Mods += st.Mods
			t.Shifts += st.Shifts
		}
	}
	return t
}

// opRec is the life of one scheduled op, in ns since the run's base.
type opRec struct {
	due, submit, done int64
	res               ofwire.FlowModResult
	err               error
	finished          int32 // completions seen
}

type ruleKey struct {
	sw int
	id classifier.RuleID
}

// collector matches fleet completions (Config.OnResult) back to scheduled
// ops. Per-op dispatch runs a worker's queued ops concurrently, so the
// fleet orders ops on one rule only in batch mode; like any controller,
// the generator therefore keeps at most one op per rule in flight. An op
// due while an earlier op on its rule is in flight is held and submitted
// the moment that op completes — still timed from its own scheduled fire
// time. With one op per rule in flight, a completion's (switch, rule)
// names its op exactly.
type collector struct {
	base  time.Time
	swIdx map[string]int
	recs  []opRec
	armed atomic.Bool

	mu         sync.Mutex
	fifo       map[ruleKey][]int32 // per rule: in-flight op, then held ops
	released   []int32
	held       int // ops held and not yet released
	finished   int
	unexpected int
	all        chan struct{}
}

func newCollector(in *inputs, base time.Time, ids []string) *collector {
	c := &collector{
		base: base, swIdx: make(map[string]int), recs: make([]opRec, len(in.Ops)),
		fifo: make(map[ruleKey][]int32), all: make(chan struct{}),
	}
	for i, id := range ids {
		c.swIdx[id] = i
	}
	if len(in.Ops) == 0 {
		close(c.all)
	}
	return c
}

func (c *collector) onResult(r fleet.OpResult) {
	if !c.armed.Load() {
		return // set-up and drain ops
	}
	t := int64(time.Since(c.base))
	c.mu.Lock()
	defer c.mu.Unlock()
	k := ruleKey{c.swIdx[r.Switch], r.RuleID}
	if len(c.fifo[k]) == 0 {
		c.unexpected++
		return
	}
	c.finishLocked(k, t, r.Result, r.Err)
}

// finishLocked completes the in-flight op of rule k and releases the next
// op held behind it.
func (c *collector) finishLocked(k ruleKey, t int64, res ofwire.FlowModResult, err error) {
	q := c.fifo[k]
	rec := &c.recs[q[0]]
	rec.done, rec.res, rec.err = t, res, err
	rec.finished++
	if c.finished++; c.finished == len(c.recs) {
		close(c.all)
	}
	if len(q) == 1 {
		delete(c.fifo, k)
		return
	}
	c.fifo[k] = q[1:]
	c.released = append(c.released, q[1])
	c.held--
}

// schedule queues op i behind any in-flight op on its rule and reports
// whether it may be submitted now.
func (c *collector) schedule(i int, k ruleKey, due int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs[i].due = due
	c.fifo[k] = append(c.fifo[k], int32(i))
	if len(c.fifo[k]) > 1 {
		c.held++
		return false
	}
	return true
}

// takeReleased returns the ops released since the last call and how many
// are still held.
func (c *collector) takeReleased() ([]int32, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.released
	c.released = nil
	return r, c.held
}

// pace replays ops open-loop: each op is submitted at start+At however
// far behind the system is (or, if held, as soon as its rule's previous op
// completes) and is timed from that scheduled instant.
func (s *system) pace(start time.Time) error {
	wt, err := newWakeTimer()
	if err != nil {
		return err
	}
	defer wt.close()
	c := s.col
	ops := s.in.Ops
	for next := 0; ; {
		rel, held := c.takeReleased()
		for _, i := range rel {
			s.fire(int(i))
		}
		if next == len(ops) {
			if held == 0 {
				return nil
			}
			if err := wt.sleep(maxNap); err != nil {
				return err
			}
			continue
		}
		due := start.Add(ops[next].At)
		if d := time.Until(due); d > 0 {
			if err := wt.sleep(min(d, maxNap)); err != nil {
				return err
			}
			continue
		}
		op := ops[next]
		if c.schedule(next, ruleKey{op.Switch, op.Rule.ID}, int64(due.Sub(c.base))) {
			s.fire(next)
		}
		next++
	}
}

// maxNap bounds one pacer sleep, so released ops wait at most this long.
const maxNap = 200 * time.Microsecond

// wakeTimer sleeps on a Linux timerfd read through the runtime's network
// poller. Go's own timers round sub-millisecond sleeps up to about 1 ms on
// Linux; a timerfd event wakes the parked goroutine within tens of
// microseconds, and, unlike a blocking nanosleep, the sleeper holds no P.
type wakeTimer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newWakeTimer() (*wakeTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &wakeTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d, which must be positive.
func (w *wakeTimer) sleep(d time.Duration) error {
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := w.f.Read(w.buf[:])
	return err
}

func (w *wakeTimer) close() { w.f.Close() }

// fire submits op i, which is the head of its rule's queue.
func (s *system) fire(i int) {
	c := s.col
	op := s.in.Ops[i]
	c.recs[i].submit = int64(time.Since(c.base))
	if err := s.submit(op); err != nil {
		c.mu.Lock()
		c.finishLocked(ruleKey{op.Switch, op.Rule.ID}, int64(time.Since(c.base)), ofwire.FlowModResult{}, err)
		c.mu.Unlock()
	}
}

// await waits for every op to finish, up to timeout.
func (c *collector) await(timeout time.Duration) error {
	select {
	case <-c.all:
		return nil
	case <-time.After(timeout):
		c.mu.Lock()
		defer c.mu.Unlock()
		return fmt.Errorf("%d of %d ops still unfinished after %v", len(c.recs)-c.finished, len(c.recs), timeout)
	}
}
