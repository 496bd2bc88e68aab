package experiments

import (
	"time"

	"autoresched/internal/malleable"
	"autoresched/internal/mpi"
	"autoresched/internal/workload"
)

// resizeRig runs the resize-* plans against a dedicated elastic job on five
// hosts instead of a core system: the malleability engine is its own
// control plane. The injector is the job's event sink, so its
// crash-on-resize-phase traps fire at the exact resize phase, and the bound
// job receives the plan's resize proposals.
var resizeRig = chaosRig{hosts: 5, start: func(h *chaosHarness) (*chaosWork, error) {
	app := &workload.ElasticJacobi{N: 24, Iters: 60, WorkPerCell: 35000}
	u := mpi.NewUniverse(mpi.Options{
		Clock:        h.clock,
		Transport:    mpi.SimTransport{Net: h.cl.Net()},
		SpawnLatency: 300 * time.Millisecond,
		HostCheck:    h.cl.HostCheck,
	})
	j, err := malleable.Start(malleable.Options{
		Universe:     u,
		App:          app,
		Hosts:        h.cl,
		InitialHosts: h.names[:4],
		Events:       h.in,
		Metrics:      h.mreg,
	})
	if err != nil {
		return nil, err
	}
	h.in.BindJob(j, h.cl.Net())
	return &chaosWork{
		settled: j.Done(),
		putDown: func() {
			j.Stop()
			<-j.Done()
		},
		finish: func(row *ChaosRow) error {
			result, err := j.Wait()
			row.FinalHost = j.Placement()[0]
			if err != nil {
				row.FinalErr = err.Error()
				return nil
			}
			sum, cerr := workload.ElasticJacobiChecksum(result)
			_, want := workload.JacobiReference(workload.JacobiConfig{N: app.N, Iters: app.Iters})
			row.Correct = cerr == nil && sum == want
			return nil
		},
		stop: j.Stop,
	}, nil
}}
