package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"time"

	"autoresched/internal/scenario"
)

// The fleet workload draws scenarios from scenario.DefaultSpace with the
// seeded Generator and executes each through the deterministic Runner, then
// renders it with Flatten, single-threaded. One op is one executed
// scenario. The planner, the tick runner and livemig.Simulate do all of
// its work; there is no network and no goroutine handoff.
//
// Building the workload replays the pinned golden fleets and compares them
// byte for byte with the committed goldens, so a change to the scenario
// engine shows up here before any op runs.

// goldenDir is the scenario package's golden directory, relative to the
// repository root the benchmark runs from.
const goldenDir = "internal/scenario/testdata"

type fleetSys struct {
	pr        probe
	lane      *lane
	seed      int64
	gen       *scenario.Generator
	digest    hash.Hash
	runs      int
	goldenErr error
}

func buildFleet(seed int64, pr probe) (system, error) {
	f := &fleetSys{
		pr:     pr,
		lane:   pr.tr.newLane(),
		seed:   seed,
		gen:    scenario.NewGenerator(scenario.DefaultSpace(), seed),
		digest: sha256.New(),
	}
	f.goldenErr = checkGoldens()
	return f, nil
}

// checkGoldens replays every pinned golden fleet and compares it with the
// committed file.
func checkGoldens() error {
	for _, seed := range scenario.GoldenSeeds {
		want, err := os.ReadFile(filepath.Join(goldenDir, scenario.GoldenFile(seed)))
		if err != nil {
			return fmt.Errorf("golden seed %d: %w", seed, err)
		}
		got, err := scenario.GoldenFleet(seed)
		if err != nil {
			return fmt.Errorf("golden seed %d: %w", seed, err)
		}
		if got != string(want) {
			return fmt.Errorf("golden seed %d: replay differs from %s", seed, scenario.GoldenFile(seed))
		}
	}
	return nil
}

func (f *fleetSys) clients() int { return 1 }

func (f *fleetSys) op(int) (time.Duration, error) {
	start := now()
	root := f.pr.tr.beginOp(f.lane, "op.fleet")
	sp := f.pr.tr.begin(f.lane, "scenario.generate")
	sc := f.gen.Next()
	f.pr.tr.end(f.lane, sp)
	sp = f.pr.tr.begin(f.lane, "scenario.run")
	res := scenario.Runner{}.Run(sc)
	f.pr.tr.end(f.lane, sp)
	sp = f.pr.tr.begin(f.lane, "scenario.render")
	text, err := scenario.Flatten(f.seed, []scenario.Result{res})
	f.pr.tr.end(f.lane, sp)
	f.pr.tr.end(f.lane, root)
	lat := now() - start

	f.runs++
	f.digest.Write([]byte(text))
	o := res.Outcome
	f.pr.ctr.add(ctrAdmissions, int64(o.Admissions))
	for _, n := range o.Migrations {
		f.pr.ctr.add(ctrMigrations, int64(n))
	}
	f.pr.ctr.add(ctrResizes, int64(o.Resizes))
	if err == nil && !o.Drained {
		err = fmt.Errorf("scenario %s did not drain: %d/%d jobs", sc.Name, o.JobsCompleted, o.JobsTotal)
	}
	return lat, err
}

func (f *fleetSys) check() []error {
	if f.goldenErr != nil {
		return []error{f.goldenErr}
	}
	return nil
}

func (f *fleetSys) summary() string {
	return fmt.Sprintf("fleet: %d scenarios from seed %d, flattened digest %x", f.runs, f.seed, f.digest.Sum(nil)[:8])
}

func (f *fleetSys) close() error { return nil }
