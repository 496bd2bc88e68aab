package main

import (
	"fmt"
	"net"
	"sync/atomic"

	"autoresched/internal/mpi"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
)

// counter names one per-layer work count, taken at a layer boundary the
// benchmark wraps.
type counter int

const (
	ctrMonitorCycles counter = iota
	ctrProtoMsgs
	ctrProtoBytes
	ctrOverloadedReports
	ctrOrders
	ctrPersistAppends
	ctrPersistBytes
	ctrPersistSnapshots
	ctrMPISends
	ctrMPIBytes
	ctrAdmissions
	ctrMigrations
	ctrResizes
	numCounters
)

// counters are always on (one atomic add per event); the traced phase
// reports their deltas per op.
type counters [numCounters]atomic.Int64

func (c *counters) add(k counter, n int64) { c[k].Add(n) }

// counts is a plain copy of counters, for deltas.
type counts [numCounters]int64

func (c *counters) snapshot() counts {
	var s counts
	for i := range c {
		s[i] = c[i].Load()
	}
	return s
}

func (a counts) minus(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// probe is what every instrumented boundary shares: the tracer and the
// counters.
type probe struct {
	tr  *tracer
	ctr *counters
}

// countConn counts the bytes a client connection moves in both
// directions, which is every byte of the round trips it carries.
type countConn struct {
	net.Conn
	ctr *counters
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ctr.add(ctrProtoBytes, int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.ctr.add(ctrProtoBytes, int64(n))
	return n, err
}

// caller is one benchmark client connection: a proto.Conn over a counting
// TCP connection, one request in flight at a time. Unlike proto.Client it
// leaves From alone, so one connection can speak for many hosts.
type caller struct {
	pr   probe
	lane *lane
	raw  net.Conn
	conn *proto.Conn
	seq  uint64
}

func dial(pr probe, l *lane, addr string) (*caller, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &caller{pr: pr, lane: l, raw: raw, conn: proto.NewConn(countConn{raw, pr.ctr})}, nil
}

// call sends m and waits for its response; a remote error comes back as
// an error.
func (c *caller) call(m *proto.Message) (*proto.Message, error) {
	s := c.pr.tr.begin(c.lane, "proto.call")
	defer c.pr.tr.end(c.lane, s)
	c.seq++
	m.Seq = c.seq
	if err := c.conn.Send(m); err != nil {
		return nil, fmt.Errorf("send %s: %w", m.Type, err)
	}
	resp, err := c.conn.Recv()
	c.pr.ctr.add(ctrProtoMsgs, 2)
	if err != nil {
		return nil, fmt.Errorf("receive reply to %s: %w", m.Type, err)
	}
	if resp.Seq != m.Seq {
		return nil, fmt.Errorf("reply to %s: seq %d, want %d", m.Type, resp.Seq, m.Seq)
	}
	if resp.Type == proto.TypeAck && resp.Error != "" {
		return nil, fmt.Errorf("%s: remote error: %s", m.Type, resp.Error)
	}
	return resp, nil
}

func (c *caller) close() error { return c.raw.Close() }

// reporter is the monitor.Reporter of the hosts whose reports travel on
// one caller. before and after, when set, run around each status report.
type reporter struct {
	*caller
	before func(host string, status proto.Status)
	after  func(host string)
}

func (r *reporter) RegisterHost(host string, static proto.StaticInfo) error {
	_, err := r.call(&proto.Message{Type: proto.TypeRegister, From: host, Static: &static})
	return err
}

func (r *reporter) ReportStatus(host string, status proto.Status) error {
	if status.State == rules.Overloaded.String() {
		r.pr.ctr.add(ctrOverloadedReports, 1)
	}
	if r.before != nil {
		r.before(host, status)
	}
	_, err := r.call(&proto.Message{Type: proto.TypeStatus, From: host, Status: &status})
	if r.after != nil {
		r.after(host)
	}
	return err
}

func (r *reporter) UnregisterHost(host string) error {
	_, err := r.call(&proto.Message{Type: proto.TypeUnregister, From: host})
	return err
}

func (r *reporter) registerProcess(host string, info proto.ProcessInfo) error {
	_, err := r.call(&proto.Message{Type: proto.TypeProcessRegister, From: host, Process: &info})
	return err
}

func (r *reporter) processExit(host string, pid int) error {
	_, err := r.call(&proto.Message{Type: proto.TypeProcessExit, From: host, Process: &proto.ProcessInfo{PID: pid}})
	return err
}

// withSpan wraps a server handler in a span named by name(m), on the lane of
// the message's sender.
func withSpan(pr probe, h proto.Handler, name func(m *proto.Message) string) proto.Handler {
	return func(m *proto.Message) (*proto.Message, error) {
		l := pr.tr.laneOf(m.From)
		pr.tr.enter(l)
		s := pr.tr.begin(l, name(m))
		resp, err := h(m)
		pr.tr.end(l, s)
		return resp, err
	}
}

// timedStore times and counts the registry's write-ahead store traffic.
type timedStore struct {
	persist.Store
	pr probe
}

func (s timedStore) Append(epoch uint64, kind string, data []byte) (uint64, error) {
	l := s.pr.tr.current()
	sp := s.pr.tr.begin(l, "persist.append")
	seq, err := s.Store.Append(epoch, kind, data)
	s.pr.tr.end(l, sp)
	s.pr.ctr.add(ctrPersistAppends, 1)
	s.pr.ctr.add(ctrPersistBytes, int64(len(data)))
	return seq, err
}

func (s timedStore) WriteSnapshot(epoch uint64, snap persist.Snapshot) error {
	l := s.pr.tr.current()
	sp := s.pr.tr.begin(l, "persist.snapshot")
	err := s.Store.WriteSnapshot(epoch, snap)
	s.pr.tr.end(l, sp)
	s.pr.ctr.add(ctrPersistSnapshots, 1)
	return err
}

// countingTransport counts the payloads the data plane moves.
type countingTransport struct {
	inner mpi.Transport
	ctr   *counters
}

func (t countingTransport) Send(from, to string, bytes int64) error {
	t.ctr.add(ctrMPISends, 1)
	t.ctr.add(ctrMPIBytes, bytes)
	return t.inner.Send(from, to, bytes)
}
