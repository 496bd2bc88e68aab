package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
)

// figure4Rules is the paper's Figure 4 complex rule with the simple rules
// it combines: rules 1 and 2 are Figure 3's, rules 3 and 4 representative
// memory and load rules. Rule 5 is the root every monitor evaluates.
const figure4Rules = `
rl_number: 1
rl_name: processorStatus
rl_type: simple
rl_script: processorStatus.sh
rl_operator: <
rl_busy: 50
rl_overLd: 45

rl_number: 2
rl_name: ntStatIpv4
rl_type: simple
rl_script: ntStatIpv4.sh
rl_operator: >
rl_param: ESTABLISHED
rl_busy: 700
rl_overLd: 900

rl_number: 3
rl_name: memAvailable
rl_type: simple
rl_script: memAvailPct.sh
rl_operator: <
rl_busy: 30
rl_overLd: 10

rl_number: 4
rl_name: loadAverage
rl_type: simple
rl_script: loadAvg.sh
rl_operator: >
rl_param: 1
rl_busy: 1
rl_overLd: 2

rl_number: 5
rl_name: cmp_rule
rl_type: complex
rl_ruleNo: 4 1 3 2
rl_script: ( 40% * r4 + 30% * r1 + 30% * r3 ) & r2
`

// figure4Engine returns a rule engine rooted at the Figure 4 rule.
func figure4Engine() (*rules.Engine, error) {
	e := rules.NewEngine(nil)
	if _, err := e.Load(strings.NewReader(figure4Rules)); err != nil {
		return nil, fmt.Errorf("figure 4 rules: %w", err)
	}
	e.SetRoot(5)
	return e, nil
}

// role is the kind of behaviour a synthetic host shows in an interval.
type role int

const (
	roleFree       role = iota // idle: the Figure 4 rule says free
	roleBusy                   // every Figure 4 sub-rule says busy
	roleOverloaded             // every Figure 4 sub-rule says overloaded
	roleComm                   // lightly loaded, ~7 MB/s each way (Table 2's ws2/ws5)
	roleLoaded                 // CPU load ~2.5 (Table 2's ws3)
)

// reading is one monitoring interval of raw host behaviour.
type reading struct {
	load     float64
	util     float64 // CPU busy share of the interval
	memAvail float64 // percent
	sockets  int
	netIn    float64 // bytes/s
	netOut   float64
}

func between(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// draw returns a seeded reading for the role. The ranges keep each role
// strictly inside its Figure 4 classification, so the expected state of a
// generated reading is known.
func (r role) draw(rng *rand.Rand) reading {
	switch r {
	case roleBusy:
		return reading{
			load: between(rng, 1.1, 1.9), util: between(rng, 0.51, 0.54),
			memAvail: between(rng, 12, 28), sockets: 710 + rng.Intn(180),
			netIn: between(rng, 0.2e6, 1e6), netOut: between(rng, 0.2e6, 1e6),
		}
	case roleOverloaded:
		return reading{
			load: between(rng, 2.2, 4), util: between(rng, 0.6, 0.9),
			memAvail: between(rng, 2, 9), sockets: 910 + rng.Intn(90),
			netIn: between(rng, 0, 0.5e6), netOut: between(rng, 0, 0.5e6),
		}
	case roleComm:
		return reading{
			load: between(rng, 0.55, 0.95), util: between(rng, 0.3, 0.45),
			memAvail: between(rng, 40, 70), sockets: 300 + rng.Intn(300),
			netIn: between(rng, 6.5e6, 7.5e6), netOut: between(rng, 6.5e6, 7.5e6),
		}
	case roleLoaded:
		return reading{
			load: between(rng, 2.3, 2.7), util: between(rng, 0.7, 0.85),
			memAvail: between(rng, 30, 60), sockets: 200 + rng.Intn(400),
			netIn: between(rng, 0, 0.5e6), netOut: between(rng, 0, 0.5e6),
		}
	default:
		return reading{
			load: between(rng, 0.05, 0.8), util: between(rng, 0.05, 0.45),
			memAvail: between(rng, 40, 80), sockets: 50 + rng.Intn(600),
			netIn: between(rng, 0, 0.5e6), netOut: between(rng, 0, 0.5e6),
		}
	}
}

// state is the Figure 4 classification a role's readings get.
func (r role) state() rules.State {
	switch r {
	case roleBusy:
		return rules.Busy
	case roleOverloaded:
		return rules.Overloaded
	default:
		return rules.Free
	}
}

const (
	memTotal  = 4 << 30
	swapTotal = 1 << 30
)

// synthHost is a sysinfo.Source whose counters follow the readings the
// benchmark feeds it, one per monitoring interval. Only the goroutine
// driving its monitor touches it.
type synthHost struct {
	static sysinfo.Static
	t      time.Time
	r      reading
	busy   time.Duration
	idle   time.Duration
	sent   int64
	recv   int64
	procs  []sysinfo.ProcStat
	disks  []sysinfo.DiskUsage
}

func newSynthHost(name string, start time.Time, rng *rand.Rand) *synthHost {
	procs := make([]sysinfo.ProcStat, 40+rng.Intn(40))
	for i := range procs {
		procs[i] = sysinfo.ProcStat{
			PID:     100 + i,
			Name:    fmt.Sprintf("proc%d", i),
			Started: start,
			Memory:  int64(1+rng.Intn(64)) << 20,
		}
	}
	return &synthHost{
		static: sysinfo.Static{
			HostName: name, Addr: "synth://" + name, OS: "synthos", Arch: "synth",
			CPUSpeed: 1000, MemTotal: memTotal,
		},
		t:     start,
		procs: procs,
		disks: []sysinfo.DiskUsage{{Path: "/", Total: 100 << 30, Used: 40 << 30, Avail: 60 << 30, UsedPct: 40}},
	}
}

// step moves the host one window forward, behaving as r during it.
func (h *synthHost) step(r reading, window time.Duration) {
	h.t = h.t.Add(window)
	h.r = r
	h.busy += time.Duration(r.util * float64(window))
	h.idle += time.Duration((1 - r.util) * float64(window))
	h.sent += int64(r.netOut * window.Seconds())
	h.recv += int64(r.netIn * window.Seconds())
}

func (h *synthHost) Static() sysinfo.Static { return h.static }
func (h *synthHost) Now() time.Time         { return h.t }
func (h *synthHost) LoadAvg() (l1, l5, l15 float64, err error) {
	return h.r.load, 0.9 * h.r.load, 0.8 * h.r.load, nil
}
func (h *synthHost) CPUTimes() (busy, idle time.Duration, err error) { return h.busy, h.idle, nil }
func (h *synthHost) Memory() (total, used int64, err error) {
	return memTotal, int64(float64(memTotal) * (1 - h.r.memAvail/100)), nil
}
func (h *synthHost) Swap() (total, used int64, err error)       { return swapTotal, 0, nil }
func (h *synthHost) Disks() ([]sysinfo.DiskUsage, error)        { return h.disks, nil }
func (h *synthHost) NetCounters() (sent, recv int64, err error) { return h.sent, h.recv, nil }
func (h *synthHost) Sockets() (int, error)                      { return h.r.sockets, nil }
func (h *synthHost) Procs() ([]sysinfo.ProcStat, error)         { return h.procs, nil }
func (h *synthHost) RunQueue() (int, error)                     { return int(h.r.load), nil }

var _ sysinfo.Source = (*synthHost)(nil)

// fill writes deterministic pseudo-random bytes (splitmix64) derived from
// seed into b.
func fill(b []byte, seed uint64) {
	x := seed
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(w[:], z)
		copy(b[i:], w[:])
	}
}
