package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"autoresched/internal/jobs"
	"autoresched/internal/scenario"
)

// The multi-job policy shoot-out: FIFO vs. priority-preemptive vs. backfill
// over one seeded queue of gang jobs on one seeded host-churn script. Each
// arm is a pinned scenario.Scenario executed by scenario.Runner — the same
// discrete-tick model the fleet experiment runs (one rank per host,
// progress in rank-seconds, preemption and crash-requeue preserving
// progress), driven by the same pure planner (jobs.PlanCycle) the live
// dispatcher executes — so a policy difference measured here is the
// decision difference of the real control plane, free of runtime noise.
// Every quantity is an integer derived from the seed: the report is
// byte-deterministic, and a seed + policy name pins the whole schedule.

// The shoot-out's queue depth and fleet size. The experiment is about
// contention, which needs a deep queue; every fourth host is "big" (the
// heterogeneous class some jobs require).
const (
	multijobJobs  = 64
	multijobHosts = 16
)

// WaitQuantiles are per-priority queue-wait statistics, in ticks.
type WaitQuantiles struct {
	Jobs int
	P50  int
	P90  int
	Max  int
}

// MultijobRow is one policy's outcome over the shared job set and churn
// script. Everything is deterministic per seed.
type MultijobRow struct {
	Policy        string
	Completed     int
	MakespanTicks int
	// Waits keys per-priority wait quantiles by priority level.
	Waits map[int]WaitQuantiles
	// Preemptions counts planner evictions by mode.
	Preemptions map[jobs.EvictMode]int
	// ChurnRequeues and ChurnShrinks count host-crash victims (requeued
	// rigid jobs, shrunk elastic ones) — identical churn hits each arm.
	ChurnRequeues int
	ChurnShrinks  int
}

// multijobScenario derives one arm's scenario from the seed. The job set
// comes from rand.NewSource(seed): gangs of 1..8, three priority levels, a
// third of the multi-rank jobs elastic, and a slice of small jobs pinned to
// the big host class so preemption's migrate arm has a heterogeneous case
// to find. The churn script — one crash per four hosts — comes from
// rand.NewSource(seed+1). Every policy sees the same jobs and churn.
func multijobScenario(seed int64, policy string) scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	gangs := []int{1, 1, 2, 2, 4, 8}
	specs := make([]scenario.JobSpec, multijobJobs)
	for i := range specs {
		j := scenario.JobSpec{
			Name:       fmt.Sprintf("job%03d", i),
			Priority:   rng.Intn(3),
			Gang:       gangs[rng.Intn(len(gangs))],
			Big:        rng.Intn(8) == 0,
			ArrivalSec: rng.Intn(150),
		}
		if j.Big {
			// The big class is a quarter of the fleet; keep its gangs small
			// so they always remain feasible.
			j.Gang = 1 + rng.Intn(2)
		}
		j.MinWorld = j.Gang
		if j.Gang >= 2 && rng.Intn(3) == 0 {
			j.Elastic = true
			j.MinWorld = max(1, j.Gang/2)
		}
		j.WorkSec = 10 + rng.Intn(40)
		specs[i] = j
	}

	crng := rand.New(rand.NewSource(seed + 1))
	churn := make([]scenario.FaultSpec, multijobHosts/4)
	for i := range churn {
		churn[i] = scenario.FaultSpec{
			AtSec:   30 + crng.Intn(150),
			Kind:    scenario.FaultCrashHost,
			Host:    scenario.HostName(crng.Intn(multijobHosts)),
			DownSec: 20 + crng.Intn(30),
		}
	}
	sort.Slice(churn, func(a, b int) bool {
		if churn[a].AtSec != churn[b].AtSec {
			return churn[a].AtSec < churn[b].AtSec
		}
		return churn[a].Host < churn[b].Host
	})

	// Migrations are stop-and-copy of a 1 MiB rank over a gigabit link:
	// a preemption-driven move costs its victim the runner's minimum
	// one-tick freeze. The horizon covers the 150 s of arrivals and the
	// 180 s of crashes.
	return scenario.Scenario{
		Name:          fmt.Sprintf("multijob-%d-%s", seed, policy),
		Seed:          seed,
		Workload:      scenario.WorkloadJacobi,
		MemMode:       scenario.MemElastic,
		Migration:     scenario.MigrateStopCopy,
		Policy:        policy,
		LinkMbps:      1000,
		Hosts:         multijobHosts,
		StateMB:       1,
		DurationSec:   240,
		SchedEverySec: 1,
		Jobs:          specs,
		Faults:        churn,
	}
}

// RunMultijob runs the shoot-out: each stock policy over the same seeded
// job set and churn script.
func RunMultijob(seed int64) []MultijobRow {
	rows := make([]MultijobRow, 0, 3)
	for _, p := range jobs.Policies() {
		rows = append(rows, multijobRow(scenario.Runner{}.Run(multijobScenario(seed, p.Name()))))
	}
	return rows
}

// multijobRow folds one arm's run into its report row; a job's queue wait
// runs from its arrival to its first admission.
func multijobRow(res scenario.Result) MultijobRow {
	o := res.Outcome
	row := MultijobRow{
		Policy:        o.Policy,
		Completed:     o.JobsCompleted,
		MakespanTicks: o.MakespanSec,
		Waits:         make(map[int]WaitQuantiles),
		Preemptions:   make(map[jobs.EvictMode]int, len(o.Preemptions)),
		ChurnRequeues: o.ChurnRequeues,
		ChurnShrinks:  o.ChurnShrinks,
	}
	for mode, n := range o.Preemptions {
		row.Preemptions[jobs.EvictMode(mode)] = n
	}
	waits := make(map[int][]int)
	for i, j := range res.Jobs {
		if j.DoneSec < 0 {
			continue
		}
		spec := res.Scenario.Jobs[i]
		waits[spec.Priority] = append(waits[spec.Priority], j.AdmitSec-spec.ArrivalSec)
	}
	for prio, w := range waits {
		sort.Ints(w)
		row.Waits[prio] = WaitQuantiles{
			Jobs: len(w),
			P50:  w[len(w)/2],
			P90:  w[len(w)*9/10],
			Max:  w[len(w)-1],
		}
	}
	return row
}

// RenderMultijob prints the shoot-out report. Every number is an integer
// function of the seed: two runs with the same seed produce byte-identical
// output.
func RenderMultijob(rows []MultijobRow) string {
	var b strings.Builder
	b.WriteString("Multi-job policy shoot-out (deterministic per seed; ticks)\n")
	b.WriteString("policy               done  makespan  preempt(requeue/shrink/migrate)  churn(requeue/shrink)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %4d %9d  %7d /%6d /%7d          %7d /%6d\n",
			r.Policy, r.Completed, r.MakespanTicks,
			r.Preemptions[jobs.EvictRequeue], r.Preemptions[jobs.EvictShrink], r.Preemptions[jobs.EvictMigrate],
			r.ChurnRequeues, r.ChurnShrinks)
	}
	b.WriteString("\nqueue wait by priority (ticks)\n")
	b.WriteString("policy               prio  jobs   p50   p90   max\n")
	for _, r := range rows {
		prios := make([]int, 0, len(r.Waits))
		for p := range r.Waits {
			prios = append(prios, p)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(prios)))
		for _, p := range prios {
			w := r.Waits[p]
			fmt.Fprintf(&b, "%-20s %5d %5d %5d %5d %5d\n", r.Policy, p, w.Jobs, w.P50, w.P90, w.Max)
		}
	}
	return b.String()
}
