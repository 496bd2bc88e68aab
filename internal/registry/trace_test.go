package registry

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"autoresched/internal/events"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func TestDecisionTraceRecordsLifecycle(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	sink := &fakeSink{}
	var observed []string
	var mu sync.Mutex
	r := newFromConfig(Config{
		Clock: clock, Commands: sink, Warmup: 2, Cooldown: time.Minute,
		Events: events.SinkFunc(func(e events.Event) {
			mu.Lock()
			observed = append(observed, e.Kind)
			mu.Unlock()
		}),
	})
	for _, h := range []string{"ws1", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ReportStatus("ws4", status("free", 0.1, 5)); err != nil {
		t.Fatal(err)
	}

	// 1st overloaded report: warmup event, no process registered yet.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	// 2nd: warmup complete but no process.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 9, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	// 3rd: ordered.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	// Post-order: warm-up restarts (4th report), then the cooldown gates
	// the re-qualified host (5th report).
	for i := 0; i < 2; i++ {
		if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
			t.Fatal(err)
		}
	}

	trace := r.Trace()
	kinds := make([]EventKind, len(trace))
	for i, e := range trace {
		kinds[i] = e.Kind
	}
	want := []EventKind{EventWarmup, EventNoProcess, EventOrdered, EventWarmup, EventCooldown}
	if len(kinds) != len(want) {
		t.Fatalf("trace = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace = %v, want %v", kinds, want)
		}
	}
	ordered := trace[2]
	if ordered.Host != "ws1" || ordered.PID != 9 || ordered.Dest != "ws4" {
		t.Fatalf("ordered event = %+v", ordered)
	}
	if s := ordered.String(); !strings.Contains(s, "ordered") || !strings.Contains(s, "dest=ws4") {
		t.Fatalf("String() = %q", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != len(want) {
		t.Fatalf("Events saw %v", observed)
	}
	for i := range want {
		if observed[i] != string(want[i]) {
			t.Fatalf("Events saw %v, want %v", observed, want)
		}
	}
}

func TestDecisionTraceOrderFailed(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	sink := &fakeSink{err: errors.New("commander unreachable")}
	r := newFromConfig(Config{Clock: clock, Commands: sink, Warmup: 1, Cooldown: time.Minute})
	for _, h := range []string{"ws1", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ReportStatus("ws4", status("free", 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 9, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	events := r.Trace()
	if len(events) != 1 || events[0].Kind != EventOrderFailed {
		t.Fatalf("trace = %+v", events)
	}
	if !strings.Contains(events[0].Note, "unreachable") {
		t.Fatalf("note = %q", events[0].Note)
	}
}

func TestDecisionTraceBounded(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	r := newFromConfig(Config{Clock: clock})
	for i := 0; i < traceCap+100; i++ {
		r.trace(EventWarmup, "ws1", 0, "", "")
	}
	if got := len(r.Trace()); got != traceCap {
		t.Fatalf("trace len = %d, want %d", got, traceCap)
	}
}
