package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b").Inc()
	reg.Counter("a").Add(3)
	reg.Counter("b").Inc()
	if got := reg.Counter("a").Value(); got != 3 {
		t.Fatalf("a = %d, want 3", got)
	}
	if got := reg.Counter("b").Value(); got != 2 {
		t.Fatalf("b = %d, want 2", got)
	}
	// Counter(name) hands back the same counter on every call.
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("Counter(a) returned two different counters")
	}
	if got := reg.Counter("missing").Value(); got != 0 {
		t.Fatalf("missing = %d, want 0", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["a"] != 3 || snap.Counters["b"] != 2 {
		t.Fatalf("Snapshot = %v", snap.Counters)
	}
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"a": 3`) || !strings.Contains(out, `"b": 2`) {
		t.Fatalf("WriteJSON = %q", out)
	}
	// "a" must sort before "b" for deterministic output.
	if strings.Index(out, `"a"`) > strings.Index(out, `"b"`) {
		t.Fatalf("WriteJSON not sorted: %q", out)
	}

	// Metrics on costs no garbage: bumping an existing counter allocates
	// nothing.
	if n := testing.AllocsPerRun(100, func() { reg.Counter("a").Inc() }); n != 0 {
		t.Fatalf("Counter(name).Inc() allocates %v objects, want 0", n)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var nilReg *Registry
	nilReg.Counter("x").Inc() // must not panic
	nilReg.Counter("x").Add(5)
	if got := nilReg.Counter("x").Value(); got != 0 {
		t.Fatalf("nil registry counter = %d, want 0", got)
	}
	if s := nilReg.Snapshot(); s.Counters != nil {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter returned non-zero")
	}
}

func TestCountersConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("n").Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("n").Value(); got != 800 {
		t.Fatalf("n = %d, want 800", got)
	}
}
