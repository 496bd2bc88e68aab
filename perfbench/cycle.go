package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"autoresched/internal/commander"
	"autoresched/internal/hpcm"
	"autoresched/internal/monitor"
	"autoresched/internal/mpi"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// The cycle workload runs the paper's autonomic loop on Table 2's five
// workstations, one migration per op: the benchmark overloads the host
// holding the process; every monitor reports over proto until the
// registry's warm-up damping lets policy 3 order the migration; the order
// goes over proto to the source's commander; hpcm collects, spawns,
// transfers and restores. The op ends when the process resumes on the
// destination; the next starts once the restore is complete and verified.
//
// The control plane runs on a manual clock stepped at the paper's values;
// the data plane charges no modelled time (an instant transport, no spawn
// latency), so every measured microsecond is the program's own work.

const (
	cycleInterval = 10 * time.Second
	cycleWarmup   = 3
	cycleCooldown = 60 * time.Second
	cycleLease    = 35 * time.Second
	lazyBytes     = 32 << 20
	eagerBytes    = 64 << 10
	queuedMsgs    = 8
	queuedBytes   = 4 << 10
	queuedTag     = 7
	// maxIntervals bounds the monitoring intervals one op may take: warm-up
	// plus one cooldown interval is five.
	maxIntervals = 12
)

// Table 2's workstations: ws1 starts the process, ws2 and ws5 exchange
// ~7 MB/s, ws3 carries a CPU load of ~2.5, ws4 is free. Policy 3's only
// acceptable destination is whichever of ws1 and ws4 does not hold the
// process, so the process moves back and forth between them.
var cycleRoles = []struct {
	name string
	role role
}{
	{"ws1", roleFree}, {"ws2", roleComm}, {"ws3", roleLoaded}, {"ws4", roleFree}, {"ws5", roleComm},
}

type cycleHost struct {
	name string
	role role
	src  *synthHost
	mon  *monitor.Monitor
	cmd  *commander.Commander
}

// appState is the process's eager memory state: a migration counter the
// destination checks and bumps, and a data block.
type appState struct {
	Gen  int
	Data []byte
}

type phaseEvent struct {
	phase string
	at    time.Duration
	err   error
}

// expectation is what the next migrate order must say.
type expectation struct {
	src, dst string
	pid      int
}

type cycleSys struct {
	pr     probe
	lane   *lane
	rng    *rand.Rand
	clock  *vclock.Manual
	hosts  []*cycleHost
	byName map[string]*cycleHost

	reg    *registry.Registry
	regSrv *proto.Server
	cmdSrv *proto.Server
	rep    *reporter // benchmark -> registry
	sink   *caller   // registry -> commanders

	uni  *mpi.Universe
	proc *hpcm.Process

	eager    appState
	lazy     []byte
	eagerSum uint32
	lazySum  uint32
	msgs     [][]byte

	kick     chan struct{}
	quit     chan struct{}
	phases   chan phaseEvent // at most resume+restore per migration, plus one failure
	verified chan error      // one verdict per resumed incarnation

	at     string // host holding the process
	pid    int
	migrs  int
	expect atomic.Pointer[expectation]

	// Set by op before the kick, read by the observer after it.
	root   *span
	kickAt time.Duration
	// Written only by the migrating goroutine (the observer).
	startAt, initAt, resumeAt time.Duration

	mu       sync.Mutex
	orderErr error

	stopOnce sync.Once
	exitErr  error
}

// pidBinder attaches incarnations with fresh pids, so every migration
// re-registers the process under a new pid as the paper's runtime does.
type pidBinder struct {
	clock vclock.Clock
	next  atomic.Int64
}

type boundProc struct {
	pid     int
	started time.Time
}

func (b *pidBinder) Attach(string, string, int64) (hpcm.HostProc, error) {
	return &boundProc{pid: int(b.next.Add(1)), started: b.clock.Now()}, nil
}

func (p *boundProc) PID() int              { return p.pid }
func (p *boundProc) Started() time.Time    { return p.started }
func (p *boundProc) Compute(float64) error { return nil }
func (p *boundProc) SetMemory(int64)       {}
func (p *boundProc) Exit()                 {}

func buildCycle(seed int64, pr probe) (system, error) {
	c := &cycleSys{
		pr:       pr,
		lane:     pr.tr.newLane(),
		rng:      rand.New(rand.NewSource(seed)),
		clock:    vclock.NewManual(vclock.Epoch),
		byName:   make(map[string]*cycleHost),
		kick:     make(chan struct{}),
		quit:     make(chan struct{}),
		phases:   make(chan phaseEvent, 4),
		verified: make(chan error, 1),
	}
	if err := c.build(seed); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cycleSys) build(seed int64) error {
	// Inputs: the process state and the queued messages, from the seed.
	c.eager = appState{Data: make([]byte, eagerBytes)}
	fill(c.eager.Data, uint64(seed)*3+1)
	c.lazy = make([]byte, lazyBytes)
	fill(c.lazy, uint64(seed)*3+2)
	c.eagerSum = crc32.Checksum(c.eager.Data, castagnoli)
	c.lazySum = crc32.Checksum(c.lazy, castagnoli)
	for i := 0; i < queuedMsgs; i++ {
		m := make([]byte, queuedBytes)
		fill(m, uint64(seed)*31+uint64(i))
		c.msgs = append(c.msgs, m)
	}

	for _, hr := range cycleRoles {
		h := &cycleHost{
			name: hr.name,
			role: hr.role,
			src:  newSynthHost(hr.name, vclock.Epoch, c.rng),
			cmd:  commander.NewCommander(hr.name, commander.WithClock(c.clock)),
		}
		c.hosts = append(c.hosts, h)
		c.byName[hr.name] = h
	}

	var err error
	c.reg = registry.NewRegistry(
		registry.WithName("registry"),
		registry.WithClock(c.clock),
		registry.WithPolicy(rules.Policy3()),
		registry.WithWarmup(cycleWarmup),
		registry.WithCooldown(cycleCooldown),
		registry.WithLease(cycleLease),
		registry.WithCommands(cycleSink{c}),
	)
	regName := func(m *proto.Message) string {
		if m.Type == proto.TypeCandidateRequest {
			return "registry.candidate"
		}
		return "registry.handle"
	}
	if c.regSrv, err = proto.NewServer("registry", "127.0.0.1:0", withSpan(c.pr, c.reg.Handler(), regName)); err != nil {
		return fmt.Errorf("registry server: %w", err)
	}
	if c.cmdSrv, err = proto.NewServer("commanders", "127.0.0.1:0", withSpan(c.pr, c.commanders, func(*proto.Message) string { return "commander.handle" })); err != nil {
		return fmt.Errorf("commander server: %w", err)
	}
	conn, err := dial(c.pr, c.lane, c.regSrv.Addr())
	if err != nil {
		return err
	}
	c.rep = &reporter{caller: conn}
	if c.sink, err = dial(c.pr, c.lane, c.cmdSrv.Addr()); err != nil {
		return err
	}

	for _, h := range c.hosts {
		engine, err := figure4Engine()
		if err != nil {
			return err
		}
		h.mon, err = monitor.NewMonitor(h.name, h.src,
			monitor.WithEngine(engine),
			monitor.WithReporter(c.rep),
			monitor.WithClock(c.clock),
			monitor.WithCommandAddr(c.cmdSrv.Addr()))
		if err != nil {
			return err
		}
		st := h.src.Static()
		if err := c.rep.RegisterHost(h.name, proto.StaticInfo{
			Addr: c.cmdSrv.Addr(), OS: st.OS, Arch: st.Arch, CPUSpeed: st.CPUSpeed, MemTotal: st.MemTotal,
		}); err != nil {
			return err
		}
	}

	c.uni = mpi.NewUniverse(mpi.Options{Clock: c.clock, Transport: countingTransport{mpi.Instant{}, c.pr.ctr}})
	mw, err := hpcm.New(hpcm.Options{
		Universe: c.uni,
		Hosts:    &pidBinder{clock: c.clock},
		Observer: c.observe,
	})
	if err != nil {
		return err
	}
	if c.proc, err = mw.Start("app", "ws1", c.app); err != nil {
		return err
	}
	c.at, c.pid = "ws1", c.proc.PID()
	feeder, err := mw.Start("feeder", "ws5", func(ctx *hpcm.Context) error {
		for _, m := range c.msgs {
			if err := ctx.SendTo("app", queuedTag, m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := feeder.Wait(); err != nil {
		return fmt.Errorf("feeder: %w", err)
	}
	c.byName["ws1"].cmd.Manage(c.proc)
	if err := c.rep.registerProcess("ws1", c.procInfo()); err != nil {
		return err
	}
	// Every monitor takes its baseline sample.
	return c.interval()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (c *cycleSys) procInfo() proto.ProcessInfo {
	return proto.ProcessInfo{PID: c.proc.PID(), Name: "app", Start: c.proc.Started().UnixNano()}
}

// other is policy 3's one acceptable destination for a process on host.
func (c *cycleSys) other(host string) string {
	if host == "ws1" {
		return "ws4"
	}
	return "ws1"
}

// commanders routes a migrate order to the commander of the host it is
// addressed to.
func (c *cycleSys) commanders(m *proto.Message) (*proto.Message, error) {
	h, ok := c.byName[m.To]
	if !ok {
		return nil, fmt.Errorf("no commander on %q", m.To)
	}
	return h.cmd.Handler()(m)
}

// cycleSink is the registry's CommandSink: it checks each order against
// policy 3's expected choice, then sends it over proto to the commander.
type cycleSink struct{ c *cycleSys }

func (s cycleSink) Migrate(host string, order proto.MigrateOrder) error {
	c := s.c
	c.pr.ctr.add(ctrOrders, 1)
	if want := c.expect.Load(); want == nil || host != want.src || order.DestHost != want.dst || order.PID != want.pid {
		c.mu.Lock()
		if c.orderErr == nil {
			c.orderErr = fmt.Errorf("order %s pid %d -> %s, want %+v", host, order.PID, order.DestHost, want)
		}
		c.mu.Unlock()
	}
	_, err := c.sink.call(&proto.Message{Type: proto.TypeMigrate, From: "registry", To: host, Migrate: &order})
	return err
}

// interval advances the control plane one monitoring interval: every
// host's monitor samples and reports.
func (c *cycleSys) interval() error {
	c.clock.Advance(cycleInterval)
	for _, h := range c.hosts {
		h.src.step(h.role.draw(c.rng), cycleInterval)
		s := c.pr.tr.begin(c.lane, "monitor.cycle")
		_, err := h.mon.Cycle()
		c.pr.tr.end(c.lane, s)
		c.pr.ctr.add(ctrMonitorCycles, 1)
		if err != nil {
			return fmt.Errorf("%s: monitor cycle: %w", h.name, err)
		}
	}
	return nil
}

func (c *cycleSys) clients() int { return 1 }

func (c *cycleSys) op(int) (time.Duration, error) {
	src, dst := c.at, c.other(c.at)
	c.expect.Store(&expectation{src: src, dst: dst, pid: c.pid})
	start := now()
	root := c.pr.tr.beginOp(c.lane, "op.cycle")
	c.byName[src].role, c.byName[dst].role = roleOverloaded, roleFree

	before := c.pr.ctr[ctrOrders].Load()
	for i := 0; c.pr.ctr[ctrOrders].Load() == before; i++ {
		if i == maxIntervals {
			return 0, fmt.Errorf("no migrate order for %s after %d intervals", src, i)
		}
		if err := c.interval(); err != nil {
			return 0, err
		}
	}
	c.mu.Lock()
	err := c.orderErr
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}

	// The order is delivered; the process takes it at its next poll-point.
	c.root, c.kickAt = root, now()
	c.kick <- struct{}{}
	ev := <-c.phases
	if ev.err != nil || ev.phase != hpcm.PhaseResume {
		return 0, fmt.Errorf("migration %s -> %s: phase %q: %v", src, dst, ev.phase, ev.err)
	}
	c.pr.tr.endAt(c.lane, root, ev.at)
	lat := ev.at - start

	if ev = <-c.phases; ev.err != nil || ev.phase != hpcm.PhaseRestore {
		return 0, fmt.Errorf("restore %s -> %s: phase %q: %v", src, dst, ev.phase, ev.err)
	}
	if err := <-c.verified; err != nil {
		return 0, err
	}
	c.migrs++

	// Re-home the process: its commander and its registration follow it.
	if h := c.proc.Host(); h != dst {
		return 0, fmt.Errorf("process on %s after migrating to %s", h, dst)
	}
	c.byName[src].cmd.Forget(c.pid)
	c.byName[dst].cmd.Manage(c.proc)
	if err := c.rep.processExit(src, c.pid); err != nil {
		return 0, err
	}
	if err := c.rep.registerProcess(dst, c.procInfo()); err != nil {
		return 0, err
	}
	c.at, c.pid = dst, c.proc.PID()
	return lat, nil
}

// observe receives hpcm's migration phases on the migrating goroutine.
func (c *cycleSys) observe(ev hpcm.MigrationEvent) {
	at := now()
	switch ev.Phase {
	case hpcm.PhaseStart:
		c.startAt = at
	case hpcm.PhaseInit:
		c.initAt = at
	case hpcm.PhaseResume:
		c.resumeAt = at
		c.pr.tr.add(c.lane, c.root, "hpcm.poll_wait", c.kickAt, c.startAt)
		c.pr.tr.add(c.lane, c.root, "hpcm.init", c.startAt, c.initAt)
		c.pr.tr.add(c.lane, c.root, "hpcm.transfer", c.initAt, at)
		c.phases <- phaseEvent{phase: ev.Phase, at: at}
	case hpcm.PhaseRestore:
		c.pr.tr.add(c.lane, nil, "hpcm.restore", c.resumeAt, at)
		c.phases <- phaseEvent{phase: ev.Phase, at: at}
	case hpcm.PhaseAborted, hpcm.PhaseFailed:
		c.phases <- phaseEvent{phase: ev.Phase, at: at, err: ev.Err}
	default:
		// Precopy and freeze belong to the live path, which is off here.
	}
}

// app is the migration-enabled process. A resumed incarnation checks the
// state it arrived with before taking the next order.
func (c *cycleSys) app(ctx *hpcm.Context) error {
	var st appState
	var lazy []byte
	if !ctx.Resumed() {
		// The first incarnation owns the generated inputs from here on.
		st, lazy = c.eager, c.lazy
		c.eager.Data, c.lazy = nil, nil
	}
	if err := ctx.Register("eager", &st); err != nil {
		return err
	}
	if err := ctx.RegisterLazy("lazy", &lazy); err != nil {
		return err
	}
	if ctx.Resumed() {
		err := ctx.Await("lazy")
		if err == nil {
			err = c.verify(st, lazy)
		}
		st.Gen++
		c.verified <- err
	}
	for {
		select {
		case <-c.kick:
		case <-c.quit:
			return c.drain(ctx)
		}
		if err := ctx.PollPoint("step"); err != nil {
			return err
		}
		c.phases <- phaseEvent{err: errors.New("poll-point found no migrate order")}
	}
}

// verify checks a resumed incarnation's state against the generated
// inputs.
func (c *cycleSys) verify(st appState, lazy []byte) error {
	if st.Gen != c.migrs {
		return fmt.Errorf("resumed with migration count %d, want %d", st.Gen, c.migrs)
	}
	if crc32.Checksum(st.Data, castagnoli) != c.eagerSum {
		return errors.New("eager state checksum mismatch after resume")
	}
	if crc32.Checksum(lazy, castagnoli) != c.lazySum {
		return errors.New("lazy state checksum mismatch after resume")
	}
	return nil
}

// drain receives the queued messages, which moved with every migration,
// and checks them.
func (c *cycleSys) drain(ctx *hpcm.Context) error {
	for i, want := range c.msgs {
		var got []byte
		if _, err := ctx.ReceiveFrom("feeder", queuedTag, &got); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("queued message %d corrupted", i)
		}
	}
	return nil
}

// stop ends the process and waits for it.
func (c *cycleSys) stop() error {
	c.stopOnce.Do(func() {
		if c.proc == nil {
			return
		}
		close(c.quit)
		c.exitErr = c.proc.Wait()
		c.uni.Wait()
	})
	return c.exitErr
}

func (c *cycleSys) check() []error {
	var errs []error
	if err := c.stop(); err != nil {
		errs = append(errs, fmt.Errorf("process exit: %w", err))
	}
	return errs
}

func (c *cycleSys) summary() string {
	return fmt.Sprintf("cycle: %d migrations, process on %s", c.migrs, c.at)
}

func (c *cycleSys) close() error {
	errs := []error{c.stop()}
	if c.rep != nil {
		errs = append(errs, c.rep.close())
	}
	if c.sink != nil {
		errs = append(errs, c.sink.close())
	}
	for _, s := range []*proto.Server{c.regSrv, c.cmdSrv} {
		if s != nil {
			errs = append(errs, s.Close())
		}
	}
	return errors.Join(errs...)
}
