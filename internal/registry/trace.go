package registry

import (
	"time"

	"autoresched/internal/events"
)

// The decision trace vocabulary: the Kind of each registry event published
// on Config.Events (Source "registry").
const (
	// EventWarmup: a host qualified for offloading but the damping window
	// has not elapsed yet.
	EventWarmup = "warmup"
	// EventCooldown: a qualified host was skipped because an order was
	// issued recently.
	EventCooldown = "cooldown"
	// EventNoProcess: a qualified host has no migration-enabled process.
	EventNoProcess = "no-process"
	// EventDeclined: no destination fit the selected process.
	EventDeclined = "declined"
	// EventOrdered: a migrate order was dispatched.
	EventOrdered = "ordered"
	// EventOrderFailed: the commander rejected the order.
	EventOrderFailed = "order-failed"
	// EventRestart: the registry dropped its soft state (simulated crash +
	// restart) — or, with a durable store configured, recovered it by
	// crash-consistent bootstrap (the RestartEvent payload tells which).
	EventRestart = "restart"
	// EventPromoted: a warm standby fenced the old primary's epoch and
	// took over as the writing registry.
	EventPromoted = "promoted"
)

// RestartEvent is the typed payload published on the unified sink for a
// registry restart, so events.On[RestartEvent] subscribers — the runtime's
// process resync, the standby promoter, test harnesses — can distinguish a
// crash-consistent recovery (Recovered, with the restored state's shape)
// from a soft-state drop without parsing trace notes.
type RestartEvent struct {
	At time.Time
	// Recovered reports a store-backed bootstrap; false is the classic
	// soft-state drop where everything must re-register.
	Recovered bool
	// Seq is the change-log sequence the recovered state corresponds to
	// (zero without a store).
	Seq uint64
	// Hosts, Procs and Domains count the restored protocol state.
	Hosts   int
	Procs   int
	Domains int
}

// trace publishes a decision event (callers must not hold r.mu).
func (r *Registry) trace(kind, host string, pid int, dest, note string) {
	r.traceWith(nil, kind, host, pid, dest, note)
}

// traceWith publishes a decision event carrying a typed payload, which
// events.On[T] subscribers pick up (callers must not hold r.mu). Callers
// that format a note check Config.Events first, so a registry nobody
// observes builds no note string.
func (r *Registry) traceWith(payload any, kind, host string, pid int, dest, note string) {
	if r.cfg.Events == nil {
		return
	}
	r.cfg.Events.Publish(events.Event{
		Time:    r.clock.Now(),
		Source:  events.SourceRegistry,
		Kind:    kind,
		Host:    host,
		Dest:    dest,
		PID:     pid,
		Note:    note,
		Payload: payload,
	})
}
