package experiments

import (
	"errors"
	"sync/atomic"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/events"
	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/registry"
)

// persistSystem builds the durable-registry system of the
// registry-crashloop-* and registry-standby-* rigs: the classic tree rig,
// but with the registry journaling every mutation to a persist.MemStore so
// a restart is a crash-consistent bootstrap instead of a soft-state drop.
// Every restart's typed payload goes to the schedule: Recovered, Hosts and
// Procs are count-driven (never wall-time-driven), so the lines are
// byte-identical across runs with the same seed.
func (h *chaosHarness) persistSystem() (*core.System, *persist.MemStore, error) {
	store := persist.NewMemStore()
	var restarts atomic.Int32
	opts := treeOptions()
	opts.Store = store
	opts.SnapshotEvery = 64
	opts.Events = events.On(func(ev registry.RestartEvent) {
		h.note("check restart-%d recovered=%v hosts=%d procs=%d domains=%d",
			restarts.Add(1), ev.Recovered, ev.Hosts, ev.Procs, ev.Domains)
	})
	sys, err := h.system(opts)
	return sys, store, err
}

// noteResyncs notes the zero-re-registration check: with a durable store
// no restart makes the monitors re-register or the runtime resync.
func (h *chaosHarness) noteResyncs() {
	h.note("check reregisters=%d proc-resyncs=%d",
		h.mreg.Counter(metrics.CtrReregisters).Value(), h.mreg.Counter(metrics.CtrProcResyncs).Value())
}

// crashloopRig runs the registry-crashloop-* plans: the parent crash-loops
// under job load (and once more after a torn tail write), and every restart
// must be a crash-consistent recovery — zero monitor re-registrations, zero
// process resyncs, and a change log that a cold replica replays to the
// primary's exact final state.
var crashloopRig = chaosRig{hosts: 4, tree: true, start: func(h *chaosHarness) (*chaosWork, error) {
	sys, store, err := h.persistSystem()
	if err != nil {
		return nil, err
	}
	w, err := h.launchTree(sys, false)
	if err != nil {
		return nil, err
	}
	finishTree := w.finish
	w.finish = func(row *ChaosRow) error {
		// Quiesce before the replay check: Stop unregisters the hosts
		// through the monitors, so the log is final and the comparison
		// race-free.
		sys.Stop()
		h.noteResyncs()
		replica, err := registry.NewStandby(store)
		if err != nil {
			return err
		}
		h.note("check replay-digest-match=%v",
			replica.Registry().StateDigest() == sys.Registry().StateDigest())
		return finishTree(row)
	}
	return w, nil
}}

// standbyRig drives the warm-standby HA drill (its fault plan is empty): a
// standby replica follows the primary's change log; mid-run the primary
// takes a gang reservation, the standby promotes (fencing the primary's
// epoch in the store), and the drill checks that the deposed primary cannot
// commit the pending gang while the promoted replica — whose presumed-abort
// pass released it — admits the same hosts exactly once.
var standbyRig = chaosRig{hosts: 4, tree: true, start: func(h *chaosHarness) (*chaosWork, error) {
	sys, store, err := h.persistSystem()
	if err != nil {
		return nil, err
	}
	w, err := h.launchTree(sys, false)
	if err != nil {
		return nil, err
	}
	// The standby shares the cluster's virtual clock: its lease-expiry view
	// of the replayed LastSeen stamps must match the primary's.
	standby, err := registry.NewStandby(store,
		registry.WithClock(h.clock), registry.WithMetrics(h.mreg))
	if err != nil {
		w.stop()
		return nil, err
	}
	drilled := make(chan struct{})
	go func() {
		defer close(drilled)
		h.clock.Sleep(40 * time.Second)
		res, err := sys.Registry().ReserveHosts([]string{"ws2", "ws3"})
		h.note("+40s    reserve-gang     hosts=ws2,ws3 ok=%v", err == nil)
		h.clock.Sleep(20 * time.Second)
		promoted, err := standby.Promote()
		h.note("+60s    promote-standby  ok=%v", err == nil)
		if err != nil {
			return
		}
		// The deposed primary's two-phase commit must be refused by the
		// store's epoch fence — the no-double-admission guarantee.
		if res != nil {
			err := res.Commit()
			h.note("check deposed-commit-fenced=%v", errors.Is(err, persist.ErrFenced))
		}
		// The promoted replica presumed the in-flight gang aborted, so the
		// same hosts admit again — exactly once, with no orphaned lease.
		res2, err := promoted.ReserveHosts([]string{"ws2", "ws3"})
		if err == nil {
			err = res2.Commit()
		}
		h.note("check promoted-readmit ok=%v", err == nil)
		h.note("check promoted-reservations-outstanding=%d", len(promoted.Reserved()))

		// The fence froze the deposed primary (every mutation appends before
		// it applies), so the change log is final from the promotion on: a
		// cold replica must replay to the promoted registry's exact state.
		replica, err := registry.NewStandby(store)
		if err != nil {
			h.note("check promoted-digest-match=error")
			return
		}
		h.note("check promoted-digest-match=%v",
			replica.Registry().StateDigest() == promoted.StateDigest())
	}()
	finishTree := w.finish
	w.finish = func(row *ChaosRow) error {
		<-drilled
		h.noteResyncs()
		return finishTree(row)
	}
	return w, nil
}}
