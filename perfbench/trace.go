package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"hermes/internal/ofwire"
)

// The wire tap wraps both ends of every control connection — the conns
// fleet.Config.Dial returns and the listener handed to AgentServer.Serve —
// and splits each byte stream back into ofwire frames. Untraced runs keep
// only the per-connection set of XIDs awaiting a reply (an output check);
// traced runs also record every frame's timing and, for flow-mod frames,
// its bytes.

const (
	sideClient uint8 = iota
	sideServer
)

const (
	dirWrite uint8 = iota
	dirRead
)

// frameRec is one complete frame seen on a tapped connection.
type frameRec struct {
	sw         int
	side, dir  uint8
	typ        ofwire.MsgType
	xid        uint32
	start, end int64 // ns since tap.base: first and last byte
	size       int
	raw        []byte // flow-mod frames in traced runs only
}

// tap collects frames from every tapped connection of one system.
type tap struct {
	base   time.Time
	traced bool
	wrap   func(net.Conn) net.Conn

	mu      sync.Mutex
	frames  []frameRec
	pending map[xidKey]int // client requests minus replies, per XID
}

type xidKey struct {
	sw  int
	xid uint32
}

func newTap(base time.Time, traced bool, wrap func(net.Conn) net.Conn) *tap {
	return &tap{base: base, traced: traced, wrap: wrap, pending: make(map[xidKey]int)}
}

func (t *tap) now() int64 { return int64(time.Since(t.base)) }

// outstanding returns how many XIDs have unequal request and reply counts.
func (t *tap) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// snapshot returns the recorded frames (traced runs).
func (t *tap) snapshot() []frameRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]frameRec(nil), t.frames...)
}

func isFlowModFrame(typ ofwire.MsgType) bool {
	switch typ {
	case ofwire.TypeFlowMod, ofwire.TypeFlowModReply, ofwire.TypeFlowModBatch,
		ofwire.TypeFlowModBatchReply, ofwire.TypeError:
		return true
	}
	return false
}

func (t *tap) emit(f frameRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f.side == sideClient && f.typ != ofwire.TypeHello {
		// A reply can be parsed before its request's write returns, so
		// the count may dip below zero on the way back to zero.
		k := xidKey{f.sw, f.xid}
		if f.dir == dirWrite {
			t.pending[k]++
		} else {
			t.pending[k]--
		}
		if t.pending[k] == 0 {
			delete(t.pending, k)
		}
	}
	if t.traced {
		t.frames = append(t.frames, f)
	}
}

// dial is the fleet.Config.Dial seam: a plain loopback dial whose
// connection is tapped as the client end of switch sw (looked up by
// address).
func (t *tap) dial(addrs map[string]int) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		var tc net.Conn = &tapConn{Conn: c, t: t, sw: addrs[addr], side: sideClient}
		if t.wrap != nil {
			tc = t.wrap(tc)
		}
		return tc, nil
	}
}

// tapListener taps every accepted connection as the server end of sw.
type tapListener struct {
	net.Listener
	t  *tap
	sw int
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, t: l.t, sw: l.sw, side: sideServer}, nil
}

// tapConn splits each direction of a connection into frames. ofwire
// serializes writes per connection and runs one reader, so each parser is
// used by one goroutine at a time.
type tapConn struct {
	net.Conn
	t    *tap
	sw   int
	side uint8
	w, r frameParser
}

func (c *tapConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	end := c.t.now()
	c.w.feed(p[:n], start, end, c.t.traced, func(f frameRec) {
		f.sw, f.side, f.dir = c.sw, c.side, dirWrite
		c.t.emit(f)
	})
	return n, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Read(p)
	end := c.t.now()
	c.r.feed(p[:n], start, end, c.t.traced, func(f frameRec) {
		f.sw, f.side, f.dir = c.sw, c.side, dirRead
		c.t.emit(f)
	})
	return n, err
}

// frameParser reassembles 8-byte-header ofwire frames from a byte stream.
type frameParser struct {
	hdr   [8]byte
	hn    int   // header bytes seen
	left  int   // body bytes still to come
	start int64 // time of the frame's first byte
	buf   []byte
}

func (p *frameParser) feed(b []byte, start, end int64, keep bool, emit func(frameRec)) {
	for len(b) > 0 {
		if p.hn < len(p.hdr) {
			if p.hn == 0 {
				p.start = start
				p.buf = nil
			}
			n := copy(p.hdr[p.hn:], b)
			p.hn += n
			b = b[n:]
			if p.hn < len(p.hdr) {
				return
			}
			if p.left = int(binary.BigEndian.Uint16(p.hdr[2:4])) - len(p.hdr); p.left < 0 {
				p.left = 0
			}
			if keep && isFlowModFrame(ofwire.MsgType(p.hdr[1])) {
				p.buf = append(make([]byte, 0, len(p.hdr)+p.left), p.hdr[:]...)
			}
		}
		n := p.left
		if n > len(b) {
			n = len(b)
		}
		if p.buf != nil {
			p.buf = append(p.buf, b[:n]...)
		}
		p.left -= n
		b = b[n:]
		if p.left == 0 {
			emit(frameRec{
				typ: ofwire.MsgType(p.hdr[1]), xid: binary.BigEndian.Uint32(p.hdr[4:8]),
				start: p.start, end: end, size: int(binary.BigEndian.Uint16(p.hdr[2:4])),
				raw: p.buf,
			})
			p.hn = 0
		}
	}
}

// span is one timed interval of a flow-mod's life. Spans of one flow-mod
// share its rule ID and op sequence number; wire spans carry the frame's
// XID. Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Rule       uint64
	Seq        uint32
	XID        uint32
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (the union of the children, clipped to the parent).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[int32(i)])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the spans as tab-separated lines with their self
// times, one span per line.
func writeSpans(path string, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tname\tstart_ns\tend_ns\tparent\trule\tseq\txid\tself_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Rule, s.Seq, s.XID, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
