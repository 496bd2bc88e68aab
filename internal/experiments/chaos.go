package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"autoresched/internal/cluster"
	"autoresched/internal/core"
	"autoresched/internal/events"
	"autoresched/internal/faults"
	"autoresched/internal/hpcm"
	"autoresched/internal/livemig"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// ChaosConfig tunes the chaos experiment: a fixed set of seeded fault
// scenarios runs the same checksummed tree computation on a four-host
// cluster while the injector crashes hosts, partitions links, restarts the
// registry and redelivers orders. Scale defaults higher than the figure
// experiments because outcomes hinge on counts and protocol phases, not on
// rate fidelity.
type ChaosConfig struct {
	Params
	// Scenarios selects a subset by name; empty runs all.
	Scenarios []string
	// Metrics, when set, accumulates every scenario's metrics registry
	// (histograms merged bucket-wise) for a run-wide snapshot — the
	// cmd/repro -metrics flag feeds from here.
	Metrics *metrics.Registry
	// Live, when set, enables iterative-precopy live migration: the tree
	// workload carries a paged ballast region, every migrate order takes the
	// live path, and a ninth scenario crashes the destination mid-precopy.
	// Nil keeps the classic stop-and-copy runs (and their byte-identical
	// reports).
	Live *livemig.Config
}

// ChaosRow is one scenario's outcome. Schedule, the counters, Survived,
// Completed, Correct, Retries and FinalErr depend only on the seed (fault
// triggers are virtual-time offsets and protocol phases); VirtualSec,
// InflationPct, FinalHost and Checkpoints carry scheduling jitter — the
// failover destination comes from a first-fit search over load
// classifications, and checkpoint cadence follows the (jittery) completion
// time — so they are reported as approximate.
type ChaosRow struct {
	Scenario  string
	Completed bool // settled before the virtual deadline (no hang)
	Correct   bool // every round's checksum matched the expected sum
	Survived  bool // Completed && Correct && no terminal error
	FinalErr  string
	Retries   int
	Schedule  []string // applied fault events + fired phase traps
	Counters  map[string]int64
	// Spans holds the per-phase migration-latency summaries (span/*
	// histograms). The counts are phase-driven and deterministic per seed;
	// the quantile strings carry scheduling jitter (wall wake-up latency ×
	// Scale) and are reported in the approximate section.
	Spans []metrics.SpanStat

	VirtualSec   float64 // approximate
	InflationPct float64 // vs the baseline scenario; approximate
	FinalHost    string  // approximate (load-dependent first fit)
	Checkpoints  int     // approximate (interval-driven)
}

// chaosCounterNames is the deterministic counter subset each row reports:
// every one is driven by a count-based or phase-based trigger, never by a
// wall-time race.
var chaosCounterNames = []string{
	metrics.CtrStatusDropped,
	metrics.CtrStatusDuplicated,
	metrics.CtrStatusDelayed,
	metrics.CtrReregisters,
	metrics.CtrOrdersDeduped,
	metrics.CtrRegistryRestarts,
	metrics.CtrRegistryRecoveries,
	metrics.CtrStandbyPromotions,
	metrics.CtrProcResyncs,
	metrics.CtrMigrAborted,
	metrics.CtrMigrCommitted,
	metrics.CtrCkptRestores,
	metrics.CtrColdRestarts,
	metrics.CtrResizeCommitted,
	metrics.CtrResizeAborted,
	metrics.CtrRanksSpawned,
	metrics.CtrRanksRetired,
	metrics.CtrJobsAdmitted,
	metrics.CtrJobsRequeued,
	metrics.CtrJobsReservations,
}

const chaosApp = "test_tree"

// chaosScenario is one fault plan and the rig it runs against.
type chaosScenario struct {
	rig  chaosRig
	plan faults.Plan
}

// chaosScenarios is the fixed scenario set. Offsets are virtual seconds
// after launch; the workload runs several hundred virtual seconds, so every
// fault lands mid-computation. live appends the precopy-specific scenario,
// which only makes sense when the live path is enabled.
func chaosScenarios(live bool) []chaosScenario {
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	scenarios := []chaosScenario{
		{treeRig, faults.Plan{Name: "baseline"}},
		{treeRig, faults.Plan{Name: "heartbeat-faults", Events: []faults.Event{
			{After: at(40), Kind: faults.KindDropStatus, Host: "ws2", Count: 2},
			{After: at(45), Kind: faults.KindDupStatus, Host: "ws3", Count: 2},
			{After: at(50), Kind: faults.KindDelayStatus, Host: "ws2", Count: 1, Delay: 2 * time.Second},
		}}},
		{treeRig, faults.Plan{Name: "degraded-migration", Events: []faults.Event{
			{After: at(40), Kind: faults.KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 0.25},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			{After: at(150), Kind: faults.KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 1},
		}}},
		{treeRig, faults.Plan{Name: "partition-abort", Events: []faults.Event{
			{After: at(40), Kind: faults.KindPartition, Host: "ws1", Peer: "ws2"},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			{After: at(150), Kind: faults.KindHeal, Host: "ws1", Peer: "ws2"},
		}}},
		{treeRig, faults.Plan{Name: "crash-dest-mid-migration", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhaseInit, Target: "dest"},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
		}}},
		{treeRig, faults.Plan{Name: "crash-source-post-commit", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhaseResume, Target: "source"},
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
		}}},
		{treeRig, faults.Plan{Name: "registry-restart", Events: []faults.Event{
			{After: at(60), Kind: faults.KindRestartRegistry},
		}}},
		{treeRig, faults.Plan{Name: "duplicate-order", Events: []faults.Event{
			{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2", Count: 3},
		}}},
	}
	if live {
		// The destination dies after the first precopy round: the freeze (or
		// next round) hits a dead host, the attempt aborts pre-commit, and
		// the runtime falls back to checkpoint recovery.
		scenarios = append(scenarios, chaosScenario{
			treeRig, faults.Plan{Name: "crash-dest-mid-precopy", Events: []faults.Event{
				{After: at(40), Kind: faults.KindCrashOnPhase, Proc: chaosApp, Phase: hpcm.PhasePrecopy, Round: 1, Target: "dest"},
				{After: at(50), Kind: faults.KindMigrate, Proc: chaosApp, Dest: "ws2"},
			}},
		})
	}
	// The resize-* scenarios run the malleability engine's crash windows
	// against a dedicated elastic job (resizeRig). One kills a freshly
	// spawned rank mid-expand, which must abort the resize cleanly back to
	// the old world; the other kills a victim host mid-shrink after the
	// drain, which must not stop the shrink from committing.
	scenarios = append(scenarios,
		chaosScenario{resizeRig, faults.Plan{Name: "resize-crash-new-rank", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnResizePhase, Phase: malleable.PhaseSpawn, Target: "new"},
			{After: at(60), Kind: faults.KindResize, Hosts: []string{"ws1", "ws2", "ws3", "ws4", "ws5"}},
		}}},
		chaosScenario{resizeRig, faults.Plan{Name: "resize-crash-victim", Events: []faults.Event{
			{After: at(40), Kind: faults.KindCrashOnResizePhase, Phase: malleable.PhaseReshape, Target: "victim"},
			{After: at(60), Kind: faults.KindResize, Hosts: []string{"ws1", "ws2", "ws3"}},
		}}},
	)
	// The jobs-* scenarios run the multi-job control plane's preemption
	// crash windows (jobsRig): a high-priority gang evicts a low-priority
	// one, and the fault lands inside the eviction. One kills a victim rank
	// mid-eviction-checkpoint — the image is lost, but the job must still
	// requeue and the gang rerun; the other crashes a reserved host while
	// the gang reservation is pending — Commit must fail with
	// ErrReservationLost and roll every mark back, leaving no orphaned
	// leases.
	scenarios = append(scenarios,
		chaosScenario{jobsRig, faults.Plan{Name: "jobs-kill-victim-mid-ckpt", Events: []faults.Event{
			{After: at(5), Kind: faults.KindSubmitJob, Proc: "batch"},
			{After: at(40), Kind: faults.KindKillOnCkpt, Proc: "batch.0", Target: "proc"},
			{After: at(45), Kind: faults.KindSubmitJob, Proc: "express"},
		}}},
		chaosScenario{jobsRig, faults.Plan{Name: "jobs-crash-host-mid-reserve", Events: []faults.Event{
			{After: at(5), Kind: faults.KindSubmitJob, Proc: "batch"},
			{After: at(40), Kind: faults.KindKillOnCkpt, Proc: "batch.1", Target: "host"},
			{After: at(45), Kind: faults.KindSubmitJob, Proc: "express"},
		}}},
	)
	// The registry-crashloop-* / registry-standby-* scenarios run the durable
	// control plane (crashloopRig, standbyRig): the registry journals every
	// mutation to a persist store, so a crash-looping parent bootstraps from
	// snapshot + log suffix with zero monitor re-registrations — even after
	// a torn tail write — and a warm standby promotes over the fenced
	// primary without double-admitting its pending gang reservation.
	scenarios = append(scenarios,
		chaosScenario{crashloopRig, faults.Plan{Name: "registry-crashloop-under-load", Events: []faults.Event{
			{After: at(60), Kind: faults.KindCrashLoopRegistry, Count: 3},
			{After: at(90), Kind: faults.KindTornWrite, Count: 5},
			{After: at(95), Kind: faults.KindRestartRegistry},
		}}},
		chaosScenario{standbyRig, faults.Plan{Name: "registry-standby-promote"}},
	)
	return scenarios
}

// ChaosScenarioNames lists the chaos scenario set in run order — the one
// authoritative list behind every "N/N scenarios survive" claim. live
// selects the sweep that appends the precopy-specific scenario
// (crash-dest-mid-precopy), so len(ChaosScenarioNames(false)) and
// len(ChaosScenarioNames(true)) are the two survival denominators;
// EXPERIMENTS.md's stated counts are pinned to them by
// TestChaosCountsMatchDocs.
func ChaosScenarioNames(live bool) []string {
	scs := chaosScenarios(live)
	names := make([]string, 0, len(scs))
	for _, sc := range scs {
		names = append(names, sc.plan.Name)
	}
	return names
}

func (cfg ChaosConfig) withChaosDefaults() ChaosConfig {
	if cfg.Scale <= 0 {
		cfg.Scale = 1000
	}
	cfg.Params = cfg.Params.withDefaults()
	return cfg
}

// RunChaos runs every selected scenario and reports survival, correctness
// and the robustness counters. The baseline scenario (no faults) anchors
// the completion-time inflation of the others.
func RunChaos(cfg ChaosConfig) ([]ChaosRow, error) {
	cfg = cfg.withChaosDefaults()
	selected := func(name string) bool {
		if len(cfg.Scenarios) == 0 {
			return true
		}
		for _, s := range cfg.Scenarios {
			if s == name {
				return true
			}
		}
		return false
	}
	var rows []ChaosRow
	baseline := 0.0
	for _, sc := range chaosScenarios(cfg.Live != nil) {
		name := sc.plan.Name
		if !selected(name) {
			continue
		}
		row, err := runChaosScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos %s: %w", name, err)
		}
		if name == "baseline" {
			baseline = row.VirtualSec
		} else if baseline > 0 && sc.rig.tree {
			row.InflationPct = (row.VirtualSec/baseline - 1) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// chaosRig is the system a scenario's fault plan runs against. The harness
// (runChaosScenario) builds the cluster, the metrics registry and the fault
// injector; start builds the rig's system on them, binds it to the
// injector and launches the workload.
type chaosRig struct {
	hosts int
	// tree marks the rigs running the checksummed tree workload, whose
	// completion times compare against the baseline scenario's. The other
	// workloads differ, so inflation against the tree would be meaningless.
	tree  bool
	start func(h *chaosHarness) (*chaosWork, error)
}

// chaosWork is a rig's launched workload, as the harness drives it.
type chaosWork struct {
	// settled closes once the workload has finished, well or not.
	settled <-chan struct{}
	// putDown forces the workload down after the virtual deadline passed;
	// it returns once settled has closed.
	putDown func()
	// finish fills in the row's outcome (FinalErr, Correct and the
	// approximate fields) after the injector stopped, noting any closing
	// checks in the schedule.
	finish func(row *ChaosRow) error
	// stop tears the rig down once the row is assembled.
	stop func()
}

// chaosHarness is one scenario run's shared state.
type chaosHarness struct {
	cfg   ChaosConfig
	cl    *cluster.Cluster
	names []string
	clock vclock.Clock
	mreg  *metrics.Registry
	in    *faults.Injector

	mu    sync.Mutex
	notes []string // deterministic lines after the injector's logs
}

// note appends one deterministic line to the row's schedule.
func (h *chaosHarness) note(format string, args ...any) {
	h.mu.Lock()
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// runChaosScenario runs one scenario: it starts the rig, applies the plan
// through the injector under a virtual-deadline watchdog, and assembles the
// row from the injector's logs, the rig's notes and the scenario's metrics.
func runChaosScenario(cfg ChaosConfig, sc chaosScenario) (ChaosRow, error) {
	cl, names, err := newCluster(cfg.Params, sc.rig.hosts)
	if err != nil {
		return ChaosRow{}, err
	}
	clock := cl.Clock()
	mreg := metrics.NewRegistry()
	h := &chaosHarness{
		cfg: cfg, cl: cl, names: names, clock: clock, mreg: mreg,
		in: faults.NewInjector(faults.Config{Clock: clock, Metrics: mreg}),
	}
	w, err := sc.rig.start(h)
	if err != nil {
		return ChaosRow{}, err
	}
	defer w.stop()
	start := clock.Now()
	h.in.Run(sc.plan)

	// Virtual-deadline watchdog: a scenario that hangs is a failed scenario,
	// not a hung experiment.
	completed := true
	watchdog := clock.NewTimer(30 * time.Minute)
	select {
	case <-w.settled:
		watchdog.Stop()
	case <-watchdog.C:
		completed = false
		w.putDown()
	}
	h.in.Stop()
	row := ChaosRow{
		Scenario:   sc.plan.Name,
		Completed:  completed,
		Schedule:   append(h.in.Applied(), h.in.Triggered()...),
		Counters:   make(map[string]int64, len(chaosCounterNames)),
		VirtualSec: clock.Since(start).Seconds(),
	}
	if err := w.finish(&row); err != nil {
		return ChaosRow{}, err
	}
	h.mu.Lock()
	row.Schedule = append(row.Schedule, h.notes...)
	h.mu.Unlock()
	for _, name := range chaosCounterNames {
		row.Counters[name] = mreg.Counter(name).Value()
	}
	// Migration phase spans come from the core rigs, resize phases from the
	// elastic one; each rig records only its own.
	row.Spans = append(mreg.SpanStats("span/"), mreg.SpanStats("malleable/")...)
	cfg.Metrics.Merge(mreg)
	row.Survived = row.Completed && row.Correct && row.FinalErr == ""
	return row, nil
}

// system builds a core rig's System. opts carries the rig's own settings;
// system fills in the block every core rig shares — the injector as the
// first event sink and as the heartbeat tap — deploys a node per host,
// binds the injector, and lets a couple of monitoring cycles give the
// registry fresh samples and leases before any fault lands.
func (h *chaosHarness) system(opts core.Options) (*core.System, error) {
	opts.Cluster = h.cl
	opts.MonitorInterval = h.cfg.Interval
	opts.GatherCost = 0.05 * hostSpeed
	opts.Warmup = 2
	opts.Cooldown = 10 * time.Minute
	opts.RegistryHost = h.names[len(h.names)-1]
	opts.ChunkBytes = 8 << 20
	opts.Checkpoints = hpcm.NewMemStore()
	opts.Metrics = h.mreg
	opts.Events = events.Multi(h.in, opts.Events)
	opts.WrapReporter = h.in.WrapReporter
	sys, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if err := sys.AddNodes(h.names...); err != nil {
		sys.Stop()
		return nil, err
	}
	h.in.Bind(sys)
	h.clock.Sleep(25 * time.Second)
	return sys, nil
}

// treeOptions is the recovery setting of the tree rigs: periodic
// checkpoints, a failover budget of two, and a dedup window that collapses
// redelivered migrate orders.
func treeOptions() core.Options {
	return core.Options{
		CheckpointEvery:  30 * time.Second,
		FailoverRetries:  2,
		OrderDedupWindow: 30 * time.Second,
	}
}

// treeRig is the classic rig: the checksummed tree computation on a
// four-host system, eligible for live migration when the sweep enables it.
var treeRig = chaosRig{hosts: 4, tree: true, start: func(h *chaosHarness) (*chaosWork, error) {
	opts := treeOptions()
	opts.Live = h.cfg.Live
	sys, err := h.system(opts)
	if err != nil {
		return nil, err
	}
	return h.launchTree(sys, h.cfg.Live != nil)
}}

// launchTree launches the tree computation on ws1 of sys and binds it as
// chaosApp. A paged ballast (live) makes the run eligible for the live
// path. The work's finish checks every round's checksum.
func (h *chaosHarness) launchTree(sys *core.System, live bool) (*chaosWork, error) {
	tree := workload.TreeConfig{
		Levels: 10, Rounds: 40, Seed: h.cfg.Seed + 1,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	if live {
		tree.BallastBytes = 4 << 20
		tree.PagedBallast = true
	}
	var mu sync.Mutex
	sums := map[int]int64{}
	tree.OnSum = func(round int, sum int64) {
		mu.Lock()
		sums[round] = sum
		mu.Unlock()
	}
	app, err := sys.Launch(chaosApp, "ws1", tree.Schema(hostSpeed), workload.TestTree(tree))
	if err != nil {
		sys.Stop()
		return nil, err
	}
	h.in.BindApp(chaosApp, app)
	return &chaosWork{
		settled: app.Settled(),
		putDown: func() {
			// Kill the app until its failover budget is spent.
			for settled := false; !settled; {
				app.Process().Kill()
				select {
				case <-app.Settled():
					settled = true
				case <-h.clock.After(100 * time.Millisecond):
				}
			}
		},
		finish: func(row *ChaosRow) error {
			row.FinalHost = app.Host()
			row.Checkpoints = app.Process().Checkpoints()
			row.Retries = app.Retries()
			if err := app.Wait(); err != nil {
				row.FinalErr = err.Error()
			}
			want := workload.ExpectedSums(tree)
			mu.Lock()
			defer mu.Unlock()
			row.Correct = len(sums) == tree.Rounds
			for round, sum := range want {
				if sums[round] != sum {
					row.Correct = false
				}
			}
			return nil
		},
		stop: sys.Stop,
	}, nil
}

// renderRowDeterministic prints the parts of a row that are identical
// across runs with the same seed.
func renderRowDeterministic(b *strings.Builder, r ChaosRow) {
	fmt.Fprintf(b, "scenario %s\n", r.Scenario)
	for _, line := range r.Schedule {
		fmt.Fprintf(b, "  fault: %s\n", line)
	}
	fmt.Fprintf(b, "  survived=%v completed=%v correct=%v retries=%d\n",
		r.Survived, r.Completed, r.Correct, r.Retries)
	if r.FinalErr != "" {
		fmt.Fprintf(b, "  error: %s\n", r.FinalErr)
	}
	names := make([]string, 0, len(r.Counters))
	for name := range r.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := r.Counters[name]; v != 0 {
			fmt.Fprintf(b, "  %-28s %d\n", name, v)
		}
	}
	for _, st := range r.Spans {
		if st.Count == 0 {
			continue
		}
		// Counts only: the phase sequence is deterministic, the measured
		// durations are not (wall jitter × Scale).
		fmt.Fprintf(b, "  %-28s n=%d\n", st.Name, st.Count)
	}
}

// RenderChaosDeterministic prints the seed-reproducible part of the report:
// the fault schedule, the robustness counters and the migration phase
// counts. Two runs with the same seed produce byte-identical output (the
// acceptance check for the experiment's determinism).
func RenderChaosDeterministic(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("Chaos — fault schedule, counters and phase counts (deterministic per seed)\n")
	for _, r := range rows {
		renderRowDeterministic(&b, r)
	}
	survived := 0
	for _, r := range rows {
		if r.Survived {
			survived++
		}
	}
	fmt.Fprintf(&b, "survival: %d/%d scenarios\n", survived, len(rows))
	return b.String()
}

// RenderChaos prints the full report: the deterministic section above plus
// the timing section (virtual completion time and inflation vs baseline),
// which carries scheduling jitter of a few percent.
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString(RenderChaosDeterministic(rows))
	b.WriteString("\ntimings (approximate)\n")
	b.WriteString("scenario                   virtual(s)  inflation(%)  final-host  checkpoints\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10.1f %13.1f  %-10s %12d\n",
			r.Scenario, r.VirtualSec, r.InflationPct, r.FinalHost, r.Checkpoints)
	}
	b.WriteString("\nmigration phases, measured (approximate: durations carry wall jitter x scale)\n")
	for _, r := range rows {
		for _, st := range r.Spans {
			if st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-26s %-14s n=%-3d p50=%-8s p95=%-8s p99=%s\n",
				r.Scenario, st.Name, st.Count, st.P50, st.P95, st.P99)
		}
	}
	return b.String()
}
