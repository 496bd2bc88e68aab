package faults

import (
	"fmt"
	"sync"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/events"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/simnet"
	"autoresched/internal/vclock"
)

// Config configures an Injector. Clock is required; the system or job it
// faults is bound afterwards (Bind, BindJob), since that target needs the
// injector as its event sink at construction time.
type Config struct {
	Clock vclock.Clock
	// Metrics, when set, counts the status-tap drops, duplicates and
	// delays (monitor/status_*).
	Metrics *metrics.Registry
	// Events, when set, receives every applied fault and fired trap on the
	// unified runtime sink (Source "faults") — pass the same sink as
	// core.Options.Events to see faults interleaved with the decisions and
	// migrations they provoke.
	Events events.Sink
}

// Injector applies a Plan against a bound core.System (or a bound
// malleable job) in virtual time. It is the only interpreter of a plan on
// the live runtime: scheduled events apply at their offsets, and the three
// trap kinds arm one-shot faults that fire from the runtime's own event
// stream — the injector is an events.Sink.
//
// Construction order matters because the injector and the system reference
// each other:
//
//	in := faults.NewInjector(faults.Config{Clock: clock, Metrics: reg})
//	sys, _ := core.New(core.Options{
//		WrapReporter: in.WrapReporter,
//		Events:       in,
//		...
//	})
//	in.Bind(sys)
//	app, _ := sys.Launch("test_tree", ...)
//	in.BindApp("test_tree", app)
//	in.Run(plan)
type Injector struct {
	cfg Config

	mu        sync.Mutex
	sys       *core.System
	apps      map[string]*core.App
	specs     map[string]jobs.Spec
	job       *malleable.Job
	jobNet    *simnet.Network
	taps      map[string]*tapState
	traps     []*trap
	applied   []string
	triggered []string
	running   bool

	stop chan struct{}
	done chan struct{}
}

// tapState is the pending per-host heartbeat interference, consumed one
// report at a time (drops first, then duplicates, then delays).
type tapState struct {
	drop    int
	dup     int
	delay   int
	delayBy time.Duration
}

// trap is an armed one-shot fault: the crash-on-phase,
// crash-on-resize-phase or kill-on-checkpoint event that armed it, waiting
// for the protocol event it names.
type trap struct {
	Event
	fired bool
}

// NewInjector creates an unbound injector.
func NewInjector(cfg Config) *Injector {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	return &Injector{
		cfg:   cfg,
		apps:  make(map[string]*core.App),
		specs: make(map[string]jobs.Spec),
		taps:  make(map[string]*tapState),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Bind attaches the system the injector faults.
func (in *Injector) Bind(sys *core.System) {
	in.mu.Lock()
	in.sys = sys
	in.mu.Unlock()
}

// BindApp names a launched app so KindMigrate and KindKillOnCkpt events
// can target it.
func (in *Injector) BindApp(name string, app *core.App) {
	in.mu.Lock()
	in.apps[name] = app
	in.mu.Unlock()
}

// BindSpec registers a job spec under its name: KindSubmitJob submits it
// to the bound system, and KindMigrate and KindKillOnCkpt can target its
// running ranks by rank name (jobs.RankName).
func (in *Injector) BindSpec(spec jobs.Spec) {
	in.mu.Lock()
	in.specs[spec.Name] = spec
	in.mu.Unlock()
}

// BindJob binds a malleable job: KindResize proposes placements to it, and
// a host crash (scheduled or trapped) takes the host down on net — so
// in-flight payloads fail — and then kills the job's ranks there.
func (in *Injector) BindJob(job *malleable.Job, net *simnet.Network) {
	in.mu.Lock()
	in.job, in.jobNet = job, net
	in.mu.Unlock()
}

// Run applies the plan's events at their virtual offsets on a single
// goroutine (so the applied log is ordered) and returns immediately.
func (in *Injector) Run(plan Plan) {
	in.mu.Lock()
	if in.running {
		in.mu.Unlock()
		panic("faults: Injector.Run called twice")
	}
	in.running = true
	in.mu.Unlock()

	evs := plan.ordered()
	go func() {
		defer close(in.done)
		var elapsed time.Duration
		for _, ev := range evs {
			if d := ev.After - elapsed; d > 0 {
				timer := in.cfg.Clock.NewTimer(d)
				select {
				case <-timer.C:
				case <-in.stop:
					timer.Stop()
					return
				}
				elapsed = ev.After
			}
			in.apply(ev)
		}
	}()
}

// Done is closed once every scheduled event has been applied.
func (in *Injector) Done() <-chan struct{} { return in.done }

// Stop abandons any not-yet-applied events.
func (in *Injector) Stop() {
	in.mu.Lock()
	select {
	case <-in.stop:
	default:
		close(in.stop)
	}
	in.mu.Unlock()
}

// Applied returns the log of scheduled events already applied, in order.
func (in *Injector) Applied() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.applied...)
}

// Triggered returns the log of event-driven faults (traps) that fired.
func (in *Injector) Triggered() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.triggered...)
}

// apply executes one event and records it.
func (in *Injector) apply(ev Event) {
	var err error
	switch ev.Kind {
	case KindCrashHost:
		err = in.crashHost(ev.Host)
	case KindDropStatus:
		in.armTap(ev.Host, func(t *tapState) { t.drop += countOf(ev) })
	case KindDupStatus:
		in.armTap(ev.Host, func(t *tapState) { t.dup += countOf(ev) })
	case KindDelayStatus:
		in.armTap(ev.Host, func(t *tapState) {
			t.delay += countOf(ev)
			t.delayBy = ev.Delay
		})
	case KindMigrate:
		err = in.migrate(ev)
	case KindResize:
		err = in.resize(ev)
	case KindCrashOnPhase, KindCrashOnResizePhase, KindKillOnCkpt:
		in.mu.Lock()
		in.traps = append(in.traps, &trap{Event: ev})
		in.mu.Unlock()
	case KindReviveHost:
		// Model-only: internal/scenario revives hosts after bounded
		// outages, while a live crash is permanent.
		err = fmt.Errorf("faults: unknown kind %q", ev.Kind)
	default:
		err = in.applySystem(ev)
	}

	line := ev.String()
	if err != nil {
		line += " error=" + err.Error()
	}
	in.mu.Lock()
	in.applied = append(in.applied, line)
	in.mu.Unlock()
	in.publish(string(ev.Kind), ev.Host, ev.Dest, ev.Proc, line, err)
}

// applySystem applies the kinds that act on the bound core.System.
func (in *Injector) applySystem(ev Event) error {
	in.mu.Lock()
	sys := in.sys
	in.mu.Unlock()
	if sys == nil {
		return fmt.Errorf("faults: %s needs a bound system", ev.Kind)
	}
	switch ev.Kind {
	case KindRestartRegistry:
		sys.RestartRegistry()
	case KindCrashLoopRegistry:
		for i := 0; i < countOf(ev); i++ {
			sys.RestartRegistry()
		}
	case KindTornWrite:
		return in.tornWrite(ev, sys)
	case KindPartition:
		return sys.Cluster().Net().SetPartitioned(ev.Host, ev.Peer, true)
	case KindHeal:
		return sys.Cluster().Net().SetPartitioned(ev.Host, ev.Peer, false)
	case KindLinkFactor:
		return sys.Cluster().Net().SetLinkFactor(ev.Host, ev.Peer, ev.Factor)
	case KindSubmitJob:
		in.mu.Lock()
		spec, ok := in.specs[ev.Proc]
		in.mu.Unlock()
		if !ok {
			return fmt.Errorf("faults: no job spec bound as %q", ev.Proc)
		}
		_, err := sys.Submit(spec)
		return err
	default:
		return fmt.Errorf("faults: unknown kind %q", ev.Kind)
	}
	return nil
}

// publish sends one applied fault or fired trap to Config.Events.
func (in *Injector) publish(kind, host, dest, proc, line string, err error) {
	if in.cfg.Events == nil {
		return
	}
	in.cfg.Events.Publish(events.Event{
		Time:   in.cfg.Clock.Now(),
		Source: events.SourceFaults,
		Kind:   kind,
		Host:   host,
		Dest:   dest,
		Proc:   proc,
		Note:   line,
		Err:    err,
	})
}

// crashHost takes a host down for good: through the bound system (network,
// monitor, incarnations), and for a bound malleable job at the transport
// first, so in-flight payloads fail, then at the job, so the drain's
// liveness checks see it.
func (in *Injector) crashHost(host string) error {
	in.mu.Lock()
	sys, job, net := in.sys, in.job, in.jobNet
	in.mu.Unlock()
	if sys == nil && job == nil {
		return fmt.Errorf("faults: crash-host needs a bound system or job")
	}
	if job != nil {
		if err := net.SetDown(host, true); err != nil {
			return err
		}
		job.CrashHost(host)
	}
	if sys != nil {
		return sys.CrashHost(host)
	}
	return nil
}

// resize proposes the event's placement to the bound malleable job.
func (in *Injector) resize(ev Event) error {
	in.mu.Lock()
	job := in.job
	in.mu.Unlock()
	if job == nil {
		return fmt.Errorf("faults: resize needs a bound job")
	}
	return job.Propose(ev.Hosts)
}

// tornWrite chops Count bytes off the tail of the system's persist store,
// simulating a write torn by power loss just before a crash.
func (in *Injector) tornWrite(ev Event, sys *core.System) error {
	store := sys.Store()
	if store == nil {
		return fmt.Errorf("faults: torn-write needs a system with a persist store")
	}
	tt, ok := store.(persist.TailTruncator)
	if !ok {
		return fmt.Errorf("faults: store %T cannot tear its tail", store)
	}
	return tt.TruncateTail(countOf(ev))
}

func countOf(ev Event) int {
	if ev.Count > 0 {
		return ev.Count
	}
	return 1
}

// migrate orders the bound app to move, Count times back to back. Repeats
// model a redelivered order: the commander's dedup window should collapse
// them into one migration.
func (in *Injector) migrate(ev Event) error {
	app, err := in.app(ev.Proc)
	if err != nil {
		return err
	}
	in.mu.Lock()
	sys := in.sys
	in.mu.Unlock()
	order := proto.MigrateOrder{
		PID:      app.Process().PID(),
		DestHost: ev.Dest,
		DestAddr: "cmd://" + ev.Dest,
	}
	for i := 0; i < countOf(ev); i++ {
		if err := sys.Migrate(app.Host(), order); err != nil {
			return err
		}
	}
	return nil
}

// app resolves a process name to an app bound with BindApp, or to the
// running rank of a job bound with BindSpec.
func (in *Injector) app(name string) (*core.App, error) {
	in.mu.Lock()
	sys, app := in.sys, in.apps[name]
	job, rank := "", -1
	for _, spec := range in.specs {
		gang := max(spec.Gang, 1)
		for r := 0; r < gang; r++ {
			if jobs.RankName(spec.Name, r, gang) == name {
				job, rank = spec.Name, r
			}
		}
	}
	in.mu.Unlock()
	switch {
	case app != nil:
		return app, nil
	case rank >= 0 && sys != nil:
		return sys.RankApp(job, rank)
	}
	return nil, fmt.Errorf("faults: no app bound as %q", name)
}

// Publish implements events.Sink. Pass the injector as the Events sink of
// the system or job it faults (alone or through events.Multi): the armed
// traps fire synchronously on the emitting goroutine, so each fault lands
// at the exact protocol step — a migration phase, a resize phase, or the
// start of a checkpoint write.
func (in *Injector) Publish(e events.Event) {
	switch ev := e.Payload.(type) {
	case hpcm.MigrationEvent:
		in.onMigration(ev)
	case malleable.Event:
		in.onResize(ev)
	case hpcm.CheckpointEvent:
		in.onCheckpoint(ev)
	default:
		// Job transitions, registry restarts and payload-less events arm
		// no trap.
	}
}

// spring fires the first armed trap of kind k that match accepts and
// returns the event that armed it. match runs under the injector's lock.
func (in *Injector) spring(k Kind, match func(Event) bool) (Event, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, tr := range in.traps {
		if !tr.fired && tr.Kind == k && match(tr.Event) {
			tr.fired = true
			return tr.Event, true
		}
	}
	return Event{}, false
}

// onMigration fires a crash-on-phase trap: crash the migration's source or
// destination host at the named phase (and precopy round, when set).
func (in *Injector) onMigration(ev hpcm.MigrationEvent) {
	tr, ok := in.spring(KindCrashOnPhase, func(tr Event) bool {
		return tr.Proc == ev.Proc && tr.Phase == ev.Phase && (tr.Round == 0 || tr.Round == ev.Round)
	})
	if !ok {
		return
	}
	victim := ev.From
	if tr.Target == "dest" {
		victim = ev.To
	}
	err := in.crashHost(victim)
	in.trip(fmt.Sprintf("trap crash-host host=%s proc=%s phase=%s", victim, ev.Proc, ev.Phase), victim, ev.Proc, err)
}

// onResize fires a crash-on-resize-phase trap: crash the first host the
// resize adds ("new") or retires ("victim"). A resize without such a host
// leaves the trap armed.
func (in *Injector) onResize(ev malleable.Event) {
	var victim string
	_, ok := in.spring(KindCrashOnResizePhase, func(tr Event) bool {
		hosts := ev.Removed
		if tr.Target == "new" {
			hosts = ev.Added
		}
		if tr.Phase != ev.Phase || len(hosts) == 0 {
			return false
		}
		victim = hosts[0]
		return true
	})
	if !ok {
		return
	}
	err := in.crashHost(victim)
	in.trip(fmt.Sprintf("trap crash-host host=%s proc=%s phase=%s", victim, ev.Job, ev.Phase), victim, ev.Job, err)
}

// onCheckpoint fires a kill-on-checkpoint trap as the named process begins
// a checkpoint write: target "host" crashes its whole host, any other
// target kills just the incarnation. Either way the image is lost.
func (in *Injector) onCheckpoint(ev hpcm.CheckpointEvent) {
	if !ev.Begin {
		return
	}
	tr, ok := in.spring(KindKillOnCkpt, func(tr Event) bool { return tr.Proc == ev.Proc })
	if !ok {
		return
	}
	var err error
	if tr.Target == "host" {
		err = in.crashHost(ev.Host)
	} else {
		var app *core.App
		if app, err = in.app(ev.Proc); err == nil {
			app.Process().Kill()
		}
	}
	in.trip(fmt.Sprintf("trap kill-on-checkpoint proc=%s host=%s target=%s", ev.Proc, ev.Host, tr.Target), ev.Host, ev.Proc, err)
}

// trip records a fired trap and publishes it.
func (in *Injector) trip(line, host, proc string, err error) {
	if err != nil {
		line += " error=" + err.Error()
	}
	in.mu.Lock()
	in.triggered = append(in.triggered, line)
	in.mu.Unlock()
	in.publish("trap", host, "", proc, line, err)
}

// WrapReporter implements core.Options.WrapReporter: each node's status
// reporter is tapped so armed heartbeat faults apply on the way to the
// registry.
func (in *Injector) WrapReporter(host string, r monitor.Reporter) monitor.Reporter {
	return &tap{in: in, host: host, inner: r}
}

// armTap mutates a host's pending heartbeat interference.
func (in *Injector) armTap(host string, f func(*tapState)) {
	in.mu.Lock()
	t := in.taps[host]
	if t == nil {
		t = &tapState{}
		in.taps[host] = t
	}
	f(t)
	in.mu.Unlock()
}

type tapAction int

const (
	tapPass tapAction = iota
	tapDrop
	tapDup
	tapDelay
)

// takeStatus consumes one pending action for a host's next status report.
func (in *Injector) takeStatus(host string) (tapAction, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	t := in.taps[host]
	if t == nil {
		return tapPass, 0
	}
	switch {
	case t.drop > 0:
		t.drop--
		return tapDrop, 0
	case t.dup > 0:
		t.dup--
		return tapDup, 0
	case t.delay > 0:
		t.delay--
		return tapDelay, t.delayBy
	}
	return tapPass, 0
}

// tap is the per-host monitor.Reporter wrapper.
type tap struct {
	in    *Injector
	host  string
	inner monitor.Reporter
}

func (t *tap) RegisterHost(host string, static proto.StaticInfo) error {
	return t.inner.RegisterHost(host, static)
}

func (t *tap) ReportStatus(host string, status proto.Status) error {
	switch act, d := t.in.takeStatus(t.host); act {
	case tapDrop:
		t.in.cfg.Metrics.Counter(metrics.CtrStatusDropped).Inc()
		return nil // swallowed; the lease absorbs a bounded gap
	case tapDup:
		t.in.cfg.Metrics.Counter(metrics.CtrStatusDuplicated).Inc()
		if err := t.inner.ReportStatus(host, status); err != nil {
			return err
		}
	case tapDelay:
		t.in.cfg.Metrics.Counter(metrics.CtrStatusDelayed).Inc()
		t.in.cfg.Clock.Sleep(d)
	case tapPass:
		// No fault armed: the report falls through untouched.
	}
	return t.inner.ReportStatus(host, status)
}

func (t *tap) UnregisterHost(host string) error {
	return t.inner.UnregisterHost(host)
}
