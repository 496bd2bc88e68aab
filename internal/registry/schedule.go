package registry

import (
	"fmt"
	"time"

	"autoresched/internal/proto"
	"autoresched/internal/rules"
)

// shouldOffload decides whether a host's latest report asks for migration:
// under the default policy its rule-decided state is Overloaded (Table 1);
// under a threshold policy the policy's trigger and source preconditions
// hold.
func (r *Registry) shouldOffload(host string, e *hostEntry) (bool, error) {
	if r.cfg.Policy == nil {
		return e.info.State.WantsOffload(), nil
	}
	if !r.cfg.Policy.Migrate {
		return false, nil
	}
	return r.cfg.Policy.ShouldMigrate(r.probes, e.info.Status.Snapshot(host))
}

// destinationOK decides whether a candidate host qualifies: alive, willing
// to accept (state Free under the default policy, the policy's destination
// conditions otherwise), and owning the resources the schema requires.
func (r *Registry) destinationOK(cand *hostEntry, proc ProcInfo) (bool, error) {
	if r.cfg.Policy == nil {
		if !cand.info.State.AcceptsMigration() {
			return false, nil
		}
	} else {
		ok, err := r.cfg.Policy.DestinationOK(r.probes, cand.info.Status.Snapshot(cand.info.Name))
		if err != nil || !ok {
			return ok, err
		}
	}
	if proc.Schema != nil {
		ok, _ := proc.Schema.Fits(
			cand.info.Static.MemTotal,
			diskAvail(cand.info.Status),
			cand.info.Static.CPUSpeed,
			cand.info.Static.Software,
		)
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func diskAvail(st proto.Status) int64 { return st.DiskAvail }

// FirstFit finds a destination for proc, excluding the source host. Despite
// the historical name it runs the configured Scheduler: the local domain is
// searched first (migration destinations are preferred inside one's own
// control domain, Section 3.2), then this registry's live child domains,
// then the parent registry.
func (r *Registry) FirstFit(exclude string, proc ProcInfo) (proto.Candidate, bool) {
	return r.placeFrom("", exclude, proc)
}

// placeFrom is the delegation walk. fromDomain names the child domain the
// request escalated out of, so the parent does not hand the placement
// straight back to the domain that already failed it.
func (r *Registry) placeFrom(fromDomain, exclude string, proc ProcInfo) (proto.Candidate, bool) {
	if cand, ok := r.placeLocal(exclude, proc); ok {
		return cand, true
	}
	if cand, ok := r.placeDomains(fromDomain, exclude, proc); ok {
		return cand, true
	}
	if r.cfg.Parent != nil {
		return r.cfg.Parent.placeFrom(r.cfg.Domain, exclude, proc)
	}
	return proto.Candidate{OK: false, Reason: "no host fits"}, false
}

// placeLocal asks the scheduler to place proc among this registry's own
// eligible hosts. Under the default policy only the Free state set is
// scanned — the indexed sets keep this cheap when most of a large cluster
// is busy. The candidate stream runs under the registry lock; see
// CandidateSeq.
func (r *Registry) placeLocal(exclude string, proc ProcInfo) (proto.Candidate, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	scan := r.order
	if r.cfg.Policy == nil {
		scan = r.sets[rules.Free]
	}
	seq := CandidateSeq(func(yield func(HostInfo) bool) {
		for _, e := range scan {
			if e.info.Name == exclude || !r.aliveLocked(e, now) {
				continue
			}
			// Hosts held by a pending gang reservation are spoken for:
			// migrating onto one would double-book it under the gang
			// about to launch there.
			if r.reservedLocked(e.info.Name) {
				continue
			}
			ok, err := r.destinationOK(e, proc)
			if err != nil || !ok {
				continue
			}
			if !yield(e.info) {
				return
			}
		}
	})
	h, ok := r.sched.PickDestination(proc, seq)
	if !ok {
		return proto.Candidate{}, false
	}
	return proto.Candidate{OK: true, Host: h.Name, Addr: h.Static.Addr}, true
}

// Candidate serves the pull-style consult: the overloaded host asks for a
// recommended destination for its selected process.
func (r *Registry) Candidate(host string) proto.Candidate {
	proc, ok := r.SelectProcess(host)
	if !ok {
		return proto.Candidate{OK: false, Reason: "no migration-enabled process registered"}
	}
	cand, _ := r.FirstFit(host, proc)
	return cand
}

// decide runs the scheduling decision for a host after a status refresh:
// warm-up damping, cooldown, process selection, destination choice, and
// finally the migrate order to the source host's commander.
func (r *Registry) decide(host string) {
	if r.cfg.Metrics != nil {
		start := time.Now() //lint:allow determinism decide_seconds measures real scheduler cost, not sim time
		defer func() {
			r.cfg.Metrics.Histogram(MetricDecideSeconds).Observe(time.Since(start).Seconds()) //lint:allow determinism decide_seconds measures real scheduler cost
		}()
	}
	r.mu.Lock()
	e, ok := r.hosts[host]
	if !ok {
		r.mu.Unlock()
		return
	}
	offload, err := r.shouldOffload(host, e)
	if err != nil || !offload {
		e.warmup = 0
		r.mu.Unlock()
		return
	}
	e.warmup++
	if e.warmup < r.cfg.Warmup {
		warm := e.warmup
		r.mu.Unlock()
		if r.cfg.Events != nil {
			r.trace(EventWarmup, host, 0, "", fmt.Sprintf("%d/%d reports", warm, r.cfg.Warmup))
		}
		return
	}
	now := r.clock.Now()
	if e.hasCmd && now.Sub(e.lastCmd) < r.cfg.Cooldown {
		r.mu.Unlock()
		r.trace(EventCooldown, host, 0, "", "")
		return
	}
	r.mu.Unlock()

	proc, ok := r.SelectProcess(host)
	if !ok {
		r.trace(EventNoProcess, host, 0, "", "")
		return
	}
	cand, ok := r.FirstFit(host, proc)
	if !ok {
		r.mu.Lock()
		r.declined++
		r.mu.Unlock()
		r.trace(EventDeclined, host, proc.PID, "", "no host fits")
		return
	}
	order := proto.MigrateOrder{
		PID:      proc.PID,
		DestHost: cand.Host,
		DestAddr: cand.Addr,
	}
	if r.cfg.Policy != nil {
		order.Policy = r.cfg.Policy.Name
	}
	if err := r.cfg.Commands.Migrate(host, order); err != nil {
		r.trace(EventOrderFailed, host, proc.PID, cand.Host, err.Error())
		return
	}
	r.mu.Lock()
	e.hasCmd = true
	e.lastCmd = now
	e.warmup = 0
	r.decided++
	r.mu.Unlock()
	r.trace(EventOrdered, host, proc.PID, cand.Host, "")
}

// Handler serves the XML protocol: monitors register and refresh (singly or
// batched), hosts ask for candidates, processes come and go.
func (r *Registry) Handler() proto.Handler {
	return func(m *proto.Message) (*proto.Message, error) {
		switch m.Type {
		case proto.TypeRegister:
			return nil, r.RegisterHost(m.From, *m.Static)
		case proto.TypeStatus:
			return nil, r.ReportStatus(m.From, *m.Status)
		case proto.TypeStatusBatch:
			return nil, r.ReportStatusBatch(m.Batch)
		case proto.TypeUnregister:
			return nil, r.UnregisterHost(m.From)
		case proto.TypeProcessRegister:
			return nil, r.RegisterProcess(m.From, *m.Process)
		case proto.TypeProcessExit:
			return nil, r.ProcessExit(m.From, m.Process.PID)
		case proto.TypeCandidateRequest:
			cand := r.Candidate(m.From)
			return &proto.Message{
				Type:      proto.TypeCandidateResponse,
				From:      r.cfg.Name,
				Candidate: &cand,
			}, nil
		default:
			return nil, fmt.Errorf("registry: unexpected message type %q", m.Type)
		}
	}
}

// StateOf returns the registry's view of a host's state (Unavailable when
// the lease has expired or the host is unknown).
func (r *Registry) StateOf(host string) rules.State {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hosts[host]
	if !ok || !r.aliveLocked(e, r.clock.Now()) {
		return rules.Unavailable
	}
	return e.info.State
}
