package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"autoresched/internal/jobs"
	"autoresched/internal/scenario"
)

// TestMultijobDeterministic: the shoot-out is a pure function of the seed,
// pinned byte for byte. The goldens are `repro -exp multijob -seed N`
// output (the report plus the blank line repro prints after it); a diff here
// is a behaviour change in the planner or the scenario runner to explain,
// not a file to regenerate.
func TestMultijobDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 42} {
		want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("multijob-seed-%d.txt", seed)))
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderMultijob(RunMultijob(seed)) + "\n"; got != string(want) {
			t.Errorf("seed %d: report drifted from its golden:\n%s\n--- want ---\n%s", seed, got, want)
		}
	}
}

// TestMultijobScenarioCoherent: every arm's pinned scenario lies inside the
// generator's space, widened only to the shoot-out's fleet and queue — so
// rigid jobs carry MinWorld = Gang and every arrival and crash falls inside
// the horizon.
func TestMultijobScenarioCoherent(t *testing.T) {
	sp := scenario.DefaultSpace()
	sp.Hosts.Max = multijobHosts
	sp.JobCount.Max = multijobJobs
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range jobs.Policies() {
			if err := sp.Check(multijobScenario(seed, p.Name())); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestMultijobPolicyOrdering: the experiment's claims, per seed — the
// priority-preemptive policy strictly lowers every high-priority wait
// quantile against FIFO (that is what preemption buys), and backfill lowers
// the makespan against FIFO (that is what walking past a blocked gang
// buys). Every arm drains the full queue.
func TestMultijobPolicyOrdering(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rows := RunMultijob(seed)
		byPolicy := make(map[string]MultijobRow, len(rows))
		for _, r := range rows {
			if r.Completed != multijobJobs {
				t.Fatalf("seed %d: policy %s completed %d of %d jobs", seed, r.Policy, r.Completed, multijobJobs)
			}
			byPolicy[r.Policy] = r
		}
		fifo := byPolicy["fifo"]
		prio := byPolicy["priority-preemptive"]
		back := byPolicy["backfill"]

		const hi = 2
		fw, pw := fifo.Waits[hi], prio.Waits[hi]
		if fw.Jobs == 0 || pw.Jobs == 0 {
			t.Fatalf("seed %d: no high-priority jobs in the sample", seed)
		}
		if !(pw.P50 < fw.P50 && pw.P90 < fw.P90 && pw.Max < fw.Max) {
			t.Errorf("seed %d: priority-preemptive does not strictly lower high-priority waits: fifo p50/p90/max=%d/%d/%d, preemptive=%d/%d/%d",
				seed, fw.P50, fw.P90, fw.Max, pw.P50, pw.P90, pw.Max)
		}
		if !(back.MakespanTicks < fifo.MakespanTicks) {
			t.Errorf("seed %d: backfill makespan %d not below fifo %d", seed, back.MakespanTicks, fifo.MakespanTicks)
		}
		preempts := 0
		for _, n := range prio.Preemptions {
			preempts += n
		}
		if preempts == 0 {
			t.Errorf("seed %d: priority-preemptive planned no preemptions", seed)
		}
		if n := fifo.Preemptions[jobs.EvictRequeue] + fifo.Preemptions[jobs.EvictShrink] + fifo.Preemptions[jobs.EvictMigrate]; n != 0 {
			t.Errorf("seed %d: fifo planned %d preemptions; want none", seed, n)
		}
	}
}
