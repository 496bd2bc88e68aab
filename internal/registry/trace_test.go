package registry

import (
	"errors"
	"strings"
	"testing"
	"time"

	"autoresched/internal/events"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func TestDecisionTraceRecordsLifecycle(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	sink := &fakeSink{}
	ring := &events.Ring{}
	r := newFromConfig(Config{
		Clock: clock, Commands: sink, Warmup: 2, Cooldown: time.Minute,
		Events: ring,
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

	trace := ring.Events()
	kinds := make([]string, len(trace))
	for i, e := range trace {
		if e.Source != events.SourceRegistry {
			t.Fatalf("event source = %q", e.Source)
		}
		kinds[i] = e.Kind
	}
	want := []string{EventWarmup, EventNoProcess, EventOrdered, EventWarmup, EventCooldown}
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
}

func TestDecisionTraceOrderFailed(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	sink := &fakeSink{err: errors.New("commander unreachable")}
	ring := &events.Ring{}
	r := newFromConfig(Config{Clock: clock, Commands: sink, Warmup: 1, Cooldown: time.Minute, Events: ring})
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
	evs := ring.Events()
	if len(evs) != 1 || evs[0].Kind != EventOrderFailed {
		t.Fatalf("trace = %+v", evs)
	}
	if !strings.Contains(evs[0].Note, "unreachable") {
		t.Fatalf("note = %q", evs[0].Note)
	}
}
