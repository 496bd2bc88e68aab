package registry

import (
	"fmt"
	"time"

	"autoresched/internal/events"
)

// EventKind classifies a scheduling-decision event.
type EventKind string

// The decision trace vocabulary.
const (
	// EventWarmup: a host qualified for offloading but the damping window
	// has not elapsed yet.
	EventWarmup EventKind = "warmup"
	// EventCooldown: a qualified host was skipped because an order was
	// issued recently.
	EventCooldown EventKind = "cooldown"
	// EventNoProcess: a qualified host has no migration-enabled process.
	EventNoProcess EventKind = "no-process"
	// EventDeclined: no destination fit the selected process.
	EventDeclined EventKind = "declined"
	// EventOrdered: a migrate order was dispatched.
	EventOrdered EventKind = "ordered"
	// EventOrderFailed: the commander rejected the order.
	EventOrderFailed EventKind = "order-failed"
	// EventRestart: the registry dropped its soft state (simulated crash +
	// restart) — or, with a durable store configured, recovered it by
	// crash-consistent bootstrap (the RestartEvent payload tells which).
	EventRestart EventKind = "restart"
	// EventPromoted: a warm standby fenced the old primary's epoch and
	// took over as the writing registry.
	EventPromoted EventKind = "promoted"
)

// Event is one entry of the scheduler's decision trace.
type Event struct {
	At   time.Time
	Kind EventKind
	Host string
	// PID and Dest are set for process-level events.
	PID  int
	Dest string
	Note string
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s host=%s", e.At.Format("15:04:05"), e.Kind, e.Host)
	if e.PID != 0 {
		s += fmt.Sprintf(" pid=%d", e.PID)
	}
	if e.Dest != "" {
		s += " dest=" + e.Dest
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

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

// traceCap bounds the in-memory decision trace.
const traceCap = 512

// trace appends an event (callers must not hold r.mu).
func (r *Registry) trace(kind EventKind, host string, pid int, dest, note string) {
	r.traceWith(nil, kind, host, pid, dest, note)
}

// traceWith appends an event carrying a typed payload on the unified sink
// (callers must not hold r.mu). The trace ring keeps the plain Event; the
// payload rides only on events.Sink, where On[T] subscribers pick it up.
func (r *Registry) traceWith(payload any, kind EventKind, host string, pid int, dest, note string) {
	e := Event{At: r.clock.Now(), Kind: kind, Host: host, PID: pid, Dest: dest, Note: note}
	r.mu.Lock()
	r.events = append(r.events, e)
	if len(r.events) > traceCap {
		r.events = r.events[len(r.events)-traceCap:]
	}
	r.mu.Unlock()
	if r.cfg.Events != nil {
		u := e.Unified()
		u.Payload = payload
		r.cfg.Events.Publish(u)
	}
}

// Unified converts the trace event to the unified runtime event vocabulary
// (the registry's adapter onto events.Sink).
func (e Event) Unified() events.Event {
	return events.Event{
		Time:   e.At,
		Source: events.SourceRegistry,
		Kind:   string(e.Kind),
		Host:   e.Host,
		Dest:   e.Dest,
		PID:    e.PID,
		Note:   e.Note,
	}
}

// Trace returns the recent decision events, oldest first.
func (r *Registry) Trace() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
