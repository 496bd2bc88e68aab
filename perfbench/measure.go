package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// system is one built workload: a closed loop of clients() clients, each
// calling op with its index until the phase ends.
type system interface {
	clients() int
	// op runs one operation and returns its latency.
	op(client int) (time.Duration, error)
	// check runs the final correctness checks after the last op.
	check() []error
	// summary is one line describing what the run did.
	summary() string
	close() error
}

// windows is how many equal stretches of time a phase is cut into. Every
// end-to-end rate and latency figure is the median over the windows of
// that window's figure, so a burst of interference from outside the
// benchmark moves one window, not the result.
const windows = 10

// phase is what one measured stretch of ops produced.
type phase struct {
	ops     int64 // attempted
	failed  int64
	errs    []error
	lat     []time.Duration // every completed op, sorted
	wall    time.Duration
	cpu     time.Duration
	gcs     uint32
	gcPause time.Duration
	ctr     counts
	win     []window
}

// window is one stretch of a phase: its completed ops' latencies (sorted),
// and the wall, CPU and heap bytes allocated over it.
type window struct {
	lat   []time.Duration
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// mark is a reading the windows are differences of.
type mark struct {
	at    time.Duration
	cpu   time.Duration
	alloc uint64
}

func takeMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

type clientRun struct {
	ops  int64
	lat  [windows][]time.Duration
	errs []error
}

// runPhase runs the closed loop for d. A client stops at its first failed
// op. Client 0 closes each window when it first finishes an op past the
// window's end; every client files its ops under the open window.
func runPhase(sys system, ctr *counters, d time.Duration) phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := ctr.snapshot()
	marks := []mark{takeMark()}
	start := marks[0].at
	deadline := start + d

	var open atomic.Int32
	runs := make([]clientRun, sys.clients())
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &runs[i]
			for now() < deadline {
				lat, err := sys.op(i)
				r.ops++
				if err != nil {
					r.errs = append(r.errs, err)
					return
				}
				w := open.Load()
				r.lat[w] = append(r.lat[w], lat)
				if i == 0 && w < windows-1 && now() >= start+time.Duration(w+1)*d/windows {
					marks = append(marks, takeMark())
					open.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	marks = append(marks, takeMark())

	p := phase{wall: marks[len(marks)-1].at - start, cpu: marks[len(marks)-1].cpu - marks[0].cpu, ctr: ctr.snapshot().minus(c0)}
	runtime.ReadMemStats(&ms1)
	p.gcs = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		w := window{wall: b.at - a.at, cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
		for _, r := range runs {
			w.lat = append(w.lat, r.lat[i-1]...)
		}
		sortDurations(w.lat)
		p.lat = append(p.lat, w.lat...)
		if len(w.lat) > 0 {
			p.win = append(p.win, w)
		}
	}
	sortDurations(p.lat)
	for _, r := range runs {
		p.ops += r.ops
		p.failed += int64(len(r.errs))
		p.errs = append(p.errs, r.errs...)
	}
	return p
}

func sortDurations(s []time.Duration) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// winMedian is the median over the phase's windows of f.
func (p phase) winMedian(f func(w window) float64) float64 {
	xs := make([]float64, 0, len(p.win))
	for _, w := range p.win {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// done is the number of completed ops, the denominator of every per-op
// figure.
func (p phase) done() int64 { return int64(len(p.lat)) }

// quantile is the nearest-rank q-quantile of sorted latencies.
func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	i := int(q*float64(len(lat))+0.5) - 1
	i = max(0, min(i, len(lat)-1))
	return lat[i]
}

func (w window) ops() int64 { return int64(len(w.lat)) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // kilobytes on Linux
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
