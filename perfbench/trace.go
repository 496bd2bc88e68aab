package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around the benchmark's calls into each layer.
// Spans live in memory: every closed span folds into per-name aggregates
// (count, wall, self time), and the first maxExport spans of each lane are
// kept for the Chrome trace-event file written at the end of a traced run.
//
// A lane is one closed-loop client's thread of control. A client's
// request and the server handler it waits for run on different goroutines
// but are one logical call stack, so spans nest on the lane, not on the
// goroutine: the server-side handler wrapper finds the lane by the
// message's sender. Calls the registry makes into its Store carry no
// sender; a server goroutine serves one client connection for its whole
// life, so the handler wrapper binds its goroutine to the lane and the
// Store wrapper looks the lane up by goroutine id (trace mode only, and
// only when several lanes share a server).
//
// Each lane has its own lock and aggregates, so clients on different
// lanes do not contend on the tracer.

// maxExport bounds the spans each lane keeps for the trace-event file.
const maxExport = 25000

type span struct {
	name   string
	id     uint64
	op     uint64
	parent *span
	tid    int
	start  time.Duration
	end    time.Duration
	child  time.Duration // wall time of closed direct children
}

type agg struct {
	n    int64
	wall time.Duration
	self time.Duration
}

type lane struct {
	tid   int
	bound atomic.Bool // a server goroutine is bound to the lane

	mu       sync.Mutex
	cur      *span  // innermost open span
	op       uint64 // op the lane is working on
	aggs     map[string]*agg
	ops      int64
	opWall   time.Duration // op roots' wall time
	opSelf   time.Duration // the part of it no child span covers
	exported []span
}

type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	nextOp atomic.Uint64

	// Written at setup, read-only while tracing.
	lanes  []*lane
	byName map[string]*lane // sender name -> lane

	byGo atomic.Pointer[map[int64]*lane] // server goroutine -> lane, copy on write
	goMu sync.Mutex                      // serialises writers of byGo
}

func newTracer() *tracer {
	t := &tracer{byName: make(map[string]*lane)}
	t.byGo.Store(&map[int64]*lane{})
	return t
}

// newLane adds a lane; setup-time only.
func (t *tracer) newLane() *lane {
	l := &lane{tid: len(t.lanes) + 1, aggs: make(map[string]*agg)}
	t.lanes = append(t.lanes, l)
	return l
}

// bind routes server-side spans for messages from sender onto l;
// setup-time only.
func (t *tracer) bind(sender string, l *lane) { t.byName[sender] = l }

// laneOf returns the lane a sender's requests run on, nil when off.
func (t *tracer) laneOf(sender string) *lane {
	if !t.on.Load() {
		return nil
	}
	if l, ok := t.byName[sender]; ok {
		return l
	}
	return t.lanes[0]
}

// enter binds the calling server goroutine to l. A lane's requests all
// arrive on one connection, served by one goroutine, so the first bind
// holds for the rest of the run.
func (t *tracer) enter(l *lane) {
	if !t.on.Load() || len(t.lanes) < 2 || l.bound.Load() {
		return
	}
	g := goid()
	l.bound.Store(true)
	t.goMu.Lock()
	defer t.goMu.Unlock()
	old := *t.byGo.Load()
	next := make(map[int64]*lane, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[g] = l
	t.byGo.Store(&next)
}

// current returns the lane the calling goroutine works for, nil when off.
func (t *tracer) current() *lane {
	if !t.on.Load() {
		return nil
	}
	if len(t.lanes) == 1 {
		return t.lanes[0]
	}
	if l, ok := (*t.byGo.Load())[goid()]; ok {
		return l
	}
	return t.lanes[0]
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goid() int64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	var id int64
	for _, c := range b[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// beginOp opens an op's root span on l.
func (t *tracer) beginOp(l *lane, name string) *span {
	if !t.on.Load() {
		return nil
	}
	op := t.nextOp.Add(1)
	l.mu.Lock()
	l.op = op
	l.mu.Unlock()
	return t.begin(l, name)
}

// begin opens a span under the lane's innermost open span.
func (t *tracer) begin(l *lane, name string) *span {
	if !t.on.Load() {
		return nil
	}
	at := now()
	id := t.nextID.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &span{name: name, id: id, op: l.op, parent: l.cur, tid: l.tid, start: at}
	l.cur = s
	return s
}

// end closes s at the current time.
func (t *tracer) end(l *lane, s *span) {
	if s == nil {
		return
	}
	t.endAt(l, s, now())
}

// endAt closes s at an explicit time.
func (t *tracer) endAt(l *lane, s *span, at time.Duration) {
	if s == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.end = at
	if l.cur == s {
		l.cur = s.parent
	}
	l.closeLocked(s)
}

// add records a span whose interval was measured elsewhere (the hpcm
// observer phases), as a child of parent (nil: a root-level span of the
// lane's current op).
func (t *tracer) add(l *lane, parent *span, name string, start, end time.Duration) {
	if !t.on.Load() {
		return
	}
	id := t.nextID.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked(&span{name: name, id: id, op: l.op, parent: parent, tid: l.tid, start: start, end: end})
}

func (l *lane) closeLocked(s *span) {
	dur := s.end - s.start
	self := dur - s.child
	a := l.aggs[s.name]
	if a == nil {
		a = &agg{}
		l.aggs[s.name] = a
	}
	a.n++
	a.wall += dur
	a.self += self
	if s.parent != nil {
		s.parent.child += dur
	}
	if strings.HasPrefix(s.name, "op.") {
		l.ops++
		l.opWall += dur
		l.opSelf += self
	}
	if len(l.exported) < maxExport {
		l.exported = append(l.exported, *s)
	}
}

// merged sums every lane's aggregates; call after tracing stops.
func (t *tracer) merged() map[string]agg {
	out := make(map[string]agg)
	for _, l := range t.lanes {
		l.mu.Lock()
		for name, a := range l.aggs {
			m := out[name]
			m.n += a.n
			m.wall += a.wall
			m.self += a.self
			out[name] = m
		}
		l.mu.Unlock()
	}
	return out
}

// layerSelf sums the self time of every span whose name starts with
// prefix (a layer "proto." or one span name "registry.candidate").
func (t *tracer) layerSelf(prefix string) time.Duration {
	var sum time.Duration
	for name, a := range t.merged() {
		if strings.HasPrefix(name, prefix) {
			sum += a.self
		}
	}
	return sum
}

// coverage is the share of op wall time covered by layer spans.
func (t *tracer) coverage() float64 {
	var wall, self time.Duration
	for _, l := range t.lanes {
		l.mu.Lock()
		wall += l.opWall
		self += l.opSelf
		l.mu.Unlock()
	}
	if wall <= 0 {
		return 0
	}
	return 1 - float64(self)/float64(wall)
}

// table renders the per-name aggregates, for the human-readable report.
func (t *tracer) table(ops int64) string {
	aggs := t.merged()
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %12s %12s\n", "span", "count", "self us/op", "wall us/op")
	for _, n := range names {
		a := aggs[n]
		fmt.Fprintf(&b, "%-22s %10d %12.2f %12.2f\n", n, a.n,
			perOp(a.self.Seconds()*1e6, ops), perOp(a.wall.Seconds()*1e6, ops))
	}
	return b.String()
}

// writeChrome writes the kept spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps, one track per lane), which Perfetto
// and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	enc := json.NewEncoder(w)
	first := true
	for _, l := range t.lanes {
		l.mu.Lock()
		spans := l.exported
		l.mu.Unlock()
		for _, s := range spans {
			if !first {
				w.WriteString(",")
			}
			first = false
			var parent uint64
			if s.parent != nil {
				parent = s.parent.id
			}
			cat, _, _ := strings.Cut(s.name, ".")
			if err := enc.Encode(event{
				Name: s.name, Cat: cat, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: s.tid,
				Args: map[string]any{"op": s.op, "id": s.id, "parent": parent},
			}); err != nil {
				return err
			}
		}
	}
	w.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return w.Flush()
}

func perOp(v float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return v / float64(ops)
}
