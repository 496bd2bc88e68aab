package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/workload"
)

// Jacobi configurations of the jobs-* scenario set. On three hosts the
// low-priority gang of two ("batch") runs long enough that the
// high-priority gang of two ("express", submitted at 45 s) finds only one
// free host and must preempt — its admission reserves a gang two-phase and
// evicts batch by checkpoint-and-requeue, which is the window the fault
// plans land their kills in.
var (
	jobsChaosBatchCfg   = workload.JacobiConfig{N: 16, Iters: 600, PollEvery: 5, WorkPerCell: 500}
	jobsChaosExpressCfg = workload.JacobiConfig{N: 16, Iters: 100, PollEvery: 5, WorkPerCell: 500}
)

// jobsChaosRank builds a rank factory for one scenario job: every rank runs
// an independent Jacobi solve with registered state (so eviction
// checkpoints carry real progress), and reports its final residual into
// finals for the correctness check.
func jobsChaosRank(job string, cfg workload.JacobiConfig, mu *sync.Mutex, finals map[string]float64) func(rank, gang int) hpcm.Main {
	return func(rank, gang int) hpcm.Main {
		jc := cfg
		name := jobs.RankName(job, rank, gang)
		jc.OnResidual = func(iter int, residual float64) {
			if iter != jc.Iters {
				return
			}
			mu.Lock()
			finals[name] = residual
			mu.Unlock()
		}
		return workload.Jacobi(jc)
	}
}

// jobsRig runs the jobs-* plans against the multi-job control plane on
// three hosts under a priority-preemptive policy. The scenario's job specs
// are bound to the injector, which submits them on the plan's submit-job
// events and fires its kill-on-checkpoint traps as a preemption victim
// begins its eviction checkpoint. FailoverRetries is zero: rank recovery is
// the job layer's business (requeue and rerun), which is precisely what the
// scenarios assert survives the kills.
var jobsRig = chaosRig{hosts: 3, start: func(h *chaosHarness) (*chaosWork, error) {
	sys, err := h.system(core.Options{
		JobPolicy:     jobs.PriorityPreemptive{},
		SchedInterval: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	finals := make(map[string]float64)
	specs := []jobs.Spec{
		{Name: "batch", Gang: 2, Priority: 0, Rank: jobsChaosRank("batch", jobsChaosBatchCfg, &mu, finals)},
		{Name: "express", Gang: 2, Priority: 2, Rank: jobsChaosRank("express", jobsChaosExpressCfg, &mu, finals)},
	}
	for _, spec := range specs {
		h.in.BindSpec(spec)
	}
	// Settled once the plan has submitted everything and every submitted
	// job has finished.
	settled := make(chan struct{})
	go func() {
		defer close(settled)
		<-h.in.Done()
		for _, j := range sys.Queue().List() {
			<-j.Done()
		}
	}()
	return &chaosWork{
		settled: settled,
		putDown: func() {
			// Cancel the survivors (repeatedly: a job mid-admission refuses
			// until it lands) so the run can be torn down cleanly.
			h.in.Stop()
			terminal := func(st jobs.State) bool {
				return st == jobs.StateCompleted || st == jobs.StateFailed || st == jobs.StateCancelled
			}
			for _, j := range sys.Queue().List() {
				for !terminal(j.State()) {
					_ = sys.CancelJob(j.Name())
					h.clock.Sleep(200 * time.Millisecond)
				}
			}
			<-settled
		},
		finish: func(row *ChaosRow) error {
			// The orphaned-lease check: every reservation taken during the
			// run must have been committed or rolled back by now, crash or
			// no crash.
			reserved := sys.Registry().Reserved()
			h.note("check reservations-outstanding=%d", len(reserved))
			submitted := sys.Queue().List()
			var errs []string
			for _, j := range submitted {
				if err := j.Err(); err != nil {
					errs = append(errs, j.Name()+": "+err.Error())
				}
			}
			if len(reserved) > 0 {
				errs = append(errs, fmt.Sprintf("orphaned reservations: %v", reserved))
			}
			row.FinalErr = strings.Join(errs, "; ")

			// Correctness: all four ranks — the killed one included,
			// whether it resumed from an older image or cold-started —
			// converged to the reference residual.
			wantBatch, _ := workload.JacobiReference(jobsChaosBatchCfg)
			wantExpress, _ := workload.JacobiReference(jobsChaosExpressCfg)
			want := map[string]float64{
				jobs.RankName("batch", 0, 2):   wantBatch,
				jobs.RankName("batch", 1, 2):   wantBatch,
				jobs.RankName("express", 0, 2): wantExpress,
				jobs.RankName("express", 1, 2): wantExpress,
			}
			mu.Lock()
			defer mu.Unlock()
			row.Correct = len(submitted) == len(specs)
			for name, w := range want {
				if got, ok := finals[name]; !ok || got != w {
					row.Correct = false
				}
			}
			return nil
		},
		stop: sys.Stop,
	}, nil
}}
