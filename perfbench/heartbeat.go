package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// The heartbeat workload is the monitoring plane of a 512-host cluster
// feeding a durable registry, as reschedd -store runs it. One op is one
// host's monitor cycle: it samples its seeded load trace, classifies it
// with the Figure 4 rule, and reports over proto into the registry, which
// journals every refresh to a FileStore with periodic snapshots. One host
// in eight has a registered process, so overloaded reports drive decisions
// and orders (into a counting sink). Every sixteenth report is followed by
// a candidate request. Two clients, each on its own TCP connection, split
// the hosts.

const (
	hbHosts         = 512
	hbClients       = 2
	hbTraceLen      = 64
	hbInterval      = 10 * time.Second
	hbCandidate     = 16
	hbSnapshotEvery = 256 // reschedd's default
	// hbHistory bounds each monitor's sample database, so the database
	// reaches its steady size within the warm-up.
	hbHistory = 16
	// hbStay is the chance a host's load trace keeps its state from one
	// interval to the next.
	hbStay = 0.85
)

type hbHost struct {
	name     string
	src      *synthHost
	mon      *monitor.Monitor
	roles    []role    // the seeded load trace, cycled
	readings []reading // one per trace entry
	pos      int
	pid      int // registered process, 0 for none
	log      hostLog
}

// hostLog keeps a host's recent reports, stamped with a global tick at
// send and at ack, so an order can be checked against the destination's
// state at the moment the registry decided.
type hostLog struct {
	mu   sync.Mutex
	ring [8]logEntry
	n    int
	sent atomic.Int64 // tick at which the host's latest report was sent
}

type logEntry struct {
	state      rules.State
	start, end int64
}

// freeDuring reports whether the registry could have seen the host Free
// at some instant of the tick window [from, to]: some report sent before
// to and not superseded by a report acked before from said Free. A host
// that never reported is Free from its registration.
func (l *hostLog) freeDuring(from, to int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < len(l.ring) && i < l.n; i++ {
		e := l.ring[(l.n-1-i)%len(l.ring)]
		if e.start > to {
			continue
		}
		if e.state == rules.Free {
			return true
		}
		if e.end != 0 && e.end < from {
			return false
		}
	}
	return l.n <= len(l.ring)
}

type hbClient struct {
	lane    *lane
	rep     *reporter
	hosts   []*hbHost
	procs   []*hbHost
	next    int
	reports int
}

type heartbeatSys struct {
	pr     probe
	rng    *rand.Rand
	clock  *vclock.Manual
	dir    string
	store  *persist.FileStore
	reg    *registry.Registry
	srv    *proto.Server
	hosts  []*hbHost
	byName map[string]*hbHost
	cls    []*hbClient
	tick   atomic.Int64

	mu       sync.Mutex
	orderErr error
}

func buildHeartbeat(seed int64, pr probe, tmp string) (system, error) {
	s := &heartbeatSys{
		pr:     pr,
		rng:    rand.New(rand.NewSource(seed)),
		clock:  vclock.NewManual(vclock.Epoch),
		byName: make(map[string]*hbHost),
	}
	if err := s.build(tmp); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *heartbeatSys) build(tmp string) error {
	// Inputs: every host's load trace, from the seed.
	for i := 0; i < hbHosts; i++ {
		h := &hbHost{name: fmt.Sprintf("h%03d", i), src: newSynthHost(fmt.Sprintf("h%03d", i), vclock.Epoch, s.rng)}
		cur := role(s.rng.Intn(3))
		for j := 0; j < hbTraceLen; j++ {
			if s.rng.Float64() > hbStay {
				cur = role((int(cur) + 1 + s.rng.Intn(2)) % 3)
			}
			h.roles = append(h.roles, cur)
			h.readings = append(h.readings, cur.draw(s.rng))
		}
		if i%16 == 0 || i%16 == 9 {
			h.pid = 1000 + i
		}
		s.hosts = append(s.hosts, h)
		s.byName[h.name] = h
	}

	var err error
	if s.dir, err = os.MkdirTemp(tmp, "heartbeat-"); err != nil {
		return err
	}
	if s.store, err = persist.OpenFileStore(s.dir, persist.FileConfig{}); err != nil {
		return err
	}
	s.reg = registry.NewRegistry(
		registry.WithName("registry"),
		registry.WithClock(s.clock),
		registry.WithCommands(s),
		registry.WithStore(timedStore{Store: s.store, pr: s.pr}),
		registry.WithSnapshotEvery(hbSnapshotEvery),
	)
	name := func(m *proto.Message) string {
		if m.Type == proto.TypeCandidateRequest {
			return "registry.candidate"
		}
		return "registry.handle"
	}
	if s.srv, err = proto.NewServer("registry", "127.0.0.1:0", withSpan(s.pr, s.reg.Handler(), name)); err != nil {
		return fmt.Errorf("registry server: %w", err)
	}
	for c := 0; c < hbClients; c++ {
		cl := &hbClient{lane: s.pr.tr.newLane()}
		conn, err := dial(s.pr, cl.lane, s.srv.Addr())
		if err != nil {
			return err
		}
		cl.rep = &reporter{caller: conn, before: s.sent, after: s.acked}
		s.cls = append(s.cls, cl)
	}
	for i, h := range s.hosts {
		cl := s.cls[i%hbClients]
		cl.hosts = append(cl.hosts, h)
		if h.pid != 0 {
			cl.procs = append(cl.procs, h)
		}
		s.pr.tr.bind(h.name, cl.lane)
		engine, err := figure4Engine()
		if err != nil {
			return err
		}
		if h.mon, err = monitor.NewMonitor(h.name, h.src,
			monitor.WithEngine(engine), monitor.WithReporter(cl.rep), monitor.WithClock(s.clock),
			monitor.WithHistorySize(hbHistory)); err != nil {
			return err
		}
		st := h.src.Static()
		if err := cl.rep.RegisterHost(h.name, proto.StaticInfo{
			Addr: st.Addr, OS: st.OS, Arch: st.Arch, CPUSpeed: st.CPUSpeed, MemTotal: st.MemTotal,
		}); err != nil {
			return err
		}
		if h.pid != 0 {
			if err := cl.rep.registerProcess(h.name, proto.ProcessInfo{PID: h.pid, Name: "app", Start: vclock.Epoch.UnixNano()}); err != nil {
				return err
			}
		}
	}
	// Every monitor takes its baseline sample.
	for _, h := range s.hosts {
		if _, err := h.mon.Cycle(); err != nil {
			return fmt.Errorf("%s: baseline cycle: %w", h.name, err)
		}
	}
	return nil
}

// sent and acked stamp a host's report around its round trip.
func (s *heartbeatSys) sent(host string, status proto.Status) {
	h := s.byName[host]
	st, _ := rules.ParseState(status.State)
	t := s.tick.Add(1)
	h.log.sent.Store(t)
	h.log.mu.Lock()
	h.log.ring[h.log.n%len(h.log.ring)] = logEntry{state: st, start: t}
	h.log.n++
	h.log.mu.Unlock()
}

func (s *heartbeatSys) acked(host string) {
	h := s.byName[host]
	t := s.tick.Add(1)
	h.log.mu.Lock()
	h.log.ring[(h.log.n-1)%len(h.log.ring)].end = t
	h.log.mu.Unlock()
}

// Migrate is the registry's CommandSink: it counts the order and checks it
// names a registered process and a destination the registry saw Free. Its
// span keeps the check out of the registry's self time.
func (s *heartbeatSys) Migrate(host string, order proto.MigrateOrder) error {
	l := s.pr.tr.current()
	sp := s.pr.tr.begin(l, "sink.order")
	defer s.pr.tr.end(l, sp)
	s.pr.ctr.add(ctrOrders, 1)
	src, dst := s.byName[host], s.byName[order.DestHost]
	var err error
	switch {
	case src == nil || order.PID != src.pid:
		err = fmt.Errorf("order for pid %d on %s, which runs no such process", order.PID, host)
	case dst == nil || !dst.log.freeDuring(src.log.sent.Load(), s.tick.Add(1)):
		err = fmt.Errorf("order from %s to %s, which was not free", host, order.DestHost)
	}
	if err != nil {
		s.mu.Lock()
		if s.orderErr == nil {
			s.orderErr = err
		}
		s.mu.Unlock()
	}
	return nil
}

func (s *heartbeatSys) clients() int { return hbClients }

func (s *heartbeatSys) op(c int) (time.Duration, error) {
	cl := s.cls[c]
	h := cl.hosts[cl.next%len(cl.hosts)]
	cl.next++
	start := now()
	root := s.pr.tr.beginOp(cl.lane, "op.heartbeat")
	// One full pass over the cluster is one monitoring interval.
	s.clock.Advance(hbInterval / hbHosts)
	i := h.pos % len(h.readings)
	h.pos++
	h.src.step(h.readings[i], hbInterval)
	sp := s.pr.tr.begin(cl.lane, "monitor.cycle")
	sample, err := h.mon.Cycle()
	s.pr.tr.end(cl.lane, sp)
	s.pr.ctr.add(ctrMonitorCycles, 1)
	if err == nil && sample.State != h.roles[i].state() {
		err = fmt.Errorf("%s classified %s, trace says %s", h.name, sample.State, h.roles[i].state())
	}
	cl.reports++
	if err == nil && cl.reports%hbCandidate == 0 {
		p := cl.procs[(cl.reports/hbCandidate)%len(cl.procs)]
		var resp *proto.Message
		resp, err = cl.rep.call(&proto.Message{Type: proto.TypeCandidateRequest, From: p.name})
		if err == nil && (resp.Type != proto.TypeCandidateResponse || resp.Candidate == nil) {
			err = fmt.Errorf("candidate request for %s answered with %s", p.name, resp.Type)
		}
	}
	s.pr.tr.end(cl.lane, root)
	return now() - start, err
}

func (s *heartbeatSys) check() []error {
	var errs []error
	s.mu.Lock()
	if s.orderErr != nil {
		errs = append(errs, s.orderErr)
	}
	s.mu.Unlock()
	for _, info := range s.reg.Hosts() {
		h := s.byName[info.Name]
		if h == nil {
			errs = append(errs, fmt.Errorf("registry knows unknown host %s", info.Name))
			continue
		}
		if want := h.mon.State(); info.State != want {
			errs = append(errs, fmt.Errorf("registry has %s %s, its monitor last said %s", info.Name, info.State, want))
		}
	}
	// A cold replica bootstrapped from the store holds the same state.
	digest := s.reg.StateDigest()
	if err := s.stopIngest(); err != nil {
		return append(errs, err)
	}
	replicaStore, err := persist.OpenFileStore(s.dir, persist.FileConfig{})
	if err != nil {
		return append(errs, fmt.Errorf("reopen store: %w", err))
	}
	replica := registry.NewRegistry(registry.WithClock(s.clock), registry.WithStore(replicaStore))
	if got := replica.StateDigest(); got != digest {
		errs = append(errs, fmt.Errorf("cold replica digest %s, primary %s", got, digest))
	}
	if err := replicaStore.Close(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

func (s *heartbeatSys) summary() string {
	ordered, declined := s.reg.Stats()
	return fmt.Sprintf("heartbeat: %d hosts, %d orders, %d declined, store seq %d",
		len(s.hosts), ordered, declined, s.store.Seq())
}

// stopIngest closes the clients, the server and the store.
func (s *heartbeatSys) stopIngest() error {
	var errs []error
	for _, cl := range s.cls {
		errs = append(errs, cl.rep.close())
	}
	s.cls = nil
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	return errors.Join(errs...)
}

func (s *heartbeatSys) close() error {
	err := s.stopIngest()
	if s.dir != "" {
		err = errors.Join(err, os.RemoveAll(s.dir))
	}
	return err
}
