package hpcm

import (
	"fmt"

	"autoresched/internal/mpi"
)

// This file implements the optimisation Section 5.2 proposes: "we can also
// choose to improve this performance by pre-initializing the processes on
// the candidate destination machines". A pre-initialized process already
// exists on the destination, waiting behind an MPI named port; a migration
// to that host connects to it instead of paying the dynamic process
// creation latency.

// PreInit launches an initialized process for p on dest ahead of any
// migration. At most one pre-initialized process per destination is kept;
// repeated calls are no-ops. Unused pre-initialized processes are released
// when p finishes.
func (p *Process) PreInit(dest string) error {
	p.mu.Lock()
	if p.finished {
		p.mu.Unlock()
		return fmt.Errorf("hpcm: PreInit after process completion")
	}
	if p.preinit == nil {
		p.preinit = make(map[string]preinitProc)
	}
	if _, ok := p.preinit[dest]; ok {
		p.mu.Unlock()
		return nil
	}
	u := p.mw.universe
	pre := preinitProc{port: u.OpenPort(), proc: newInitialized()}
	p.preinit[dest] = pre
	p.mu.Unlock()

	u.Start([]string{dest}, pre.proc.main(func(env *mpi.Env) error {
		inter, err := env.Accept(pre.port, env.World)
		if err != nil {
			return nil // released unused (port closed)
		}
		return p.bootstrap(env, inter)
	}))
	return nil
}

// preinitProc is a pre-initialized process waiting behind port.
type preinitProc struct {
	port string
	proc *initialized
}

// PreInited reports the destinations with a waiting pre-initialized
// process.
func (p *Process) PreInited() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.preinit))
	for dest := range p.preinit {
		out = append(out, dest)
	}
	return out
}

// takePreinit consumes the pre-initialized process for dest, if any.
func (p *Process) takePreinit(dest string) (preinitProc, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pre, ok := p.preinit[dest]
	if ok {
		delete(p.preinit, dest)
	}
	return pre, ok
}
