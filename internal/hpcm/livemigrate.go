package hpcm

import (
	"fmt"
	"sort"
	"sync/atomic"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
)

// Live migration: the iterative-precopy extension of the Section 3
// protocol. The classic path freezes the process for its whole memory
// transfer; the live path ships the paged region in rounds over the
// intercommunicator while the source keeps computing — round 1 carries
// every page, rounds 2..N only the pages dirtied since the previous round
// — and freezes the process only for the residual dirty set plus the
// classic execution-state transfer. When the dirty set stops shrinking the
// attempt falls back to stop-and-copy, paying one extra spawn.
//
// The flow is split across poll-points: startLive launches the attempt and
// returns immediately (the application computes through the rounds);
// pollLive resolves it at the first poll-point after the driver reached a
// terminal decision — freezeLive for a converged attempt, a cancel plus
// classic migrate for fallback.

// liveAttempt is one in-flight precopy attempt, created at the poll-point
// that consumed the migrate command and resolved at a later one.
type liveAttempt struct {
	proc      string
	label     string // poll-point that started the attempt
	sig       pendingCmd
	pagesName string
	pages     *livemig.Pages
	inter     *mpi.Comm
	dest      *initialized
	rec       Record
	driver    *livemig.Driver
	send      livemig.SendFunc

	cancelled atomic.Bool
	done      chan struct{} // closed when the driver goroutine finished
	res       livemig.Result
	err       error
}

func (att *liveAttempt) event(phase string, round int, err error) MigrationEvent {
	return MigrationEvent{
		Proc: att.proc, From: att.rec.From, To: att.rec.To,
		Label: att.label, Phase: phase, Round: round, Err: err,
	}
}

// startLive begins a precopy attempt for the consumed migrate command. It
// reports started=false (and no error) when the process has no single
// paged region, in which case the caller migrates classically. When
// started, PollPoint returns nil and the application computes while the
// driver goroutine ships rounds; a later poll-point resolves the attempt.
func (c *Context) startLive(label string, sig pendingCmd) (started bool, err error) {
	pagesName, pages := c.state.pagesRegion()
	if pages == nil {
		return false, nil
	}
	p := c.proc
	mw := p.mw
	cmd := sig.cmd

	att := &liveAttempt{
		proc:      p.name,
		label:     label,
		sig:       sig,
		pagesName: pagesName,
		pages:     pages,
		done:      make(chan struct{}),
		rec: Record{
			From:        c.env.Host,
			To:          cmd.DestHost,
			Label:       label,
			CommandAt:   sig.at,
			PollPointAt: mw.clock.Now(),
		},
	}
	mw.observe(att.event(PhaseStart, 0, nil))

	// The destination assembles pages until the freeze batch; the live path
	// always spawns — pre-initialized processes speak only the classic
	// protocol.
	dest := newInitialized()
	inter, serr := c.env.Spawn([]string{cmd.DestHost}, dest.main(func(env *mpi.Env) error {
		return p.bootstrapLive(env, env.Parent)
	}))
	if serr != nil {
		mf := &MigrationFailure{
			From: att.rec.From, To: att.rec.To, Label: label, Phase: PhaseStart,
			Err: fmt.Errorf("hpcm: dynamic process creation on %q: %w", cmd.DestHost, serr),
		}
		mw.observe(att.event(PhaseAborted, 0, mf))
		return true, mf
	}
	att.inter = inter
	att.dest = dest
	att.rec.InitDone = mw.clock.Now()
	mw.observe(att.event(PhaseInit, 0, nil))

	// Batches move as metadata plus one multi-part raw message; the blocking
	// sends charge the virtual transfer time, which paces the rounds and
	// makes them contend with application traffic on the simulated network.
	att.send = func(meta livemig.BatchMeta, parts [][]byte) error {
		if err := inter.Send(meta, 0, tagPrecopy); err != nil {
			return err
		}
		if len(meta.PageIDs) > 0 {
			return inter.SendParts(parts, 0, tagPrecopy)
		}
		return nil
	}
	onRound := func(round, sent, dirty int) {
		mw.observe(att.event(PhasePrecopy, round, nil))
	}
	driver, derr := livemig.NewDriver(*mw.live, pages, att.send, onRound)
	if derr != nil {
		// Unmigratable shape (empty region): release the spawned
		// destination and let the classic path handle the command.
		dest.release()
		return false, nil
	}
	att.driver = driver

	p.mu.Lock()
	p.live = att
	p.mu.Unlock()

	p.xfer.Add(1)
	go func() {
		defer p.xfer.Done()
		att.res, att.err = driver.Run()
		if att.cancelled.Load() {
			// Stopped between rounds (process finished or was killed): the
			// destination is still waiting for batches; release it.
			att.dest.release()
		}
		close(att.done)
	}()
	return true, nil
}

// pollLive resolves an in-flight live attempt. handled=false means no
// attempt exists and the poll-point proceeds normally; handled=true with a
// nil error means rounds are still on the wire and the application should
// keep computing.
func (c *Context) pollLive(label string) (handled bool, err error) {
	p := c.proc
	p.mu.Lock()
	att := p.live
	p.mu.Unlock()
	if att == nil {
		return false, nil
	}
	select {
	case <-att.done:
	default:
		// Precopy rounds still shipping: compute through them. Checkpoint
		// cadence is preserved — a checkpoint written here is the fallback
		// point if the attempt aborts.
		return true, c.maybeCheckpoint(label)
	}
	p.mu.Lock()
	if p.live != att {
		// cancelLive raced us and owns the cleanup.
		p.mu.Unlock()
		return true, nil
	}
	p.live = nil
	p.mu.Unlock()

	p.xfer.Add(1)
	defer p.xfer.Done()

	mw := p.mw
	if att.err != nil {
		att.dest.release()
		mf := &MigrationFailure{
			From: att.rec.From, To: att.rec.To, Label: att.label,
			Phase: PhasePrecopy, Err: att.err,
		}
		mw.observe(att.event(PhaseAborted, att.res.Rounds, mf))
		return true, mf
	}
	if att.res.Decision == livemig.Fallback {
		// The dirty set never converged: discard the precopy work and pay
		// the classic stop-and-copy price — including a second spawn, which
		// is exactly the visible fallback cost the experiments measure.
		att.dest.release()
		mw.observe(att.event(PhaseAborted, att.res.Rounds, fmt.Errorf(
			"hpcm: precopy did not converge after %d rounds: falling back to stop-and-copy", att.res.Rounds)))
		return true, c.migrate(label, att.sig)
	}
	return true, c.freezeLive(label, att)
}

// freezeLive is the live path's commit sequence, run at the poll-point
// where the process freezes: ship the residual dirty pages, then the
// classic execution-state transfer minus the paged region the destination
// already holds. The window from here to the destination's resume is the
// migration's downtime.
func (c *Context) freezeLive(label string, att *liveAttempt) error {
	p := c.proc
	mw := p.mw
	clock := mw.clock
	inter := att.inter

	rec := att.rec
	rec.Label = label
	rec.FreezeAt = clock.Now()
	rec.PrecopyRounds = att.res.Rounds

	event := func(phase string, err error) MigrationEvent {
		return MigrationEvent{
			Proc: p.name, From: rec.From, To: rec.To,
			Label: label, Phase: phase, Err: err,
		}
	}
	abort := func(phase string, err error) error {
		att.dest.release()
		mf := &MigrationFailure{
			From: rec.From, To: rec.To, Label: label, Phase: phase, Err: err,
		}
		mw.observe(event(PhaseAborted, mf))
		return mf
	}
	mw.observe(event(PhaseFreeze, nil))

	// Residual dirty pages: applying the freeze batch completes the region.
	// Every residual page was already shipped in an earlier round, so it
	// counts as resent alongside the driver's rounds 2..N.
	ids, parts, _ := att.pages.Snapshot(att.res.ShippedGen)
	rec.PagesResent = att.res.PagesResent + len(ids)
	meta := livemig.BatchMeta{
		Round:     att.res.Rounds + 1,
		PageIDs:   ids,
		PageBytes: att.pages.PageSize(),
		Total:     att.pages.Len(),
		Final:     true,
	}
	if err := att.send(meta, parts); err != nil {
		return abort(PhaseFreeze, fmt.Errorf("hpcm: residual page transfer: %w", err))
	}

	eager, lazy, err := c.state.collect(att.pagesName)
	if err != nil {
		return abort(PhaseFreeze, fmt.Errorf("hpcm: state collection: %w", err))
	}
	hdr := header{Label: label, PagesName: att.pagesName}
	sortLazyNames(&hdr, lazy)
	for _, name := range hdr.LazyNames {
		rec.LazyBytes += int64(len(lazy[name]))
	}
	for _, data := range eager {
		rec.EagerBytes += int64(len(data))
	}

	p.mu.Lock()
	oldHP := p.hostProc
	p.mu.Unlock()

	if pending := p.pendingBytes(); pending > 0 {
		rec.CommBytes = pending
		if err := mw.universe.Transport().Send(c.env.Host, rec.To, pending); err != nil {
			return abort(PhaseFreeze, fmt.Errorf("hpcm: communication state transfer: %w", err))
		}
	}
	if err := inter.Send(hdr, 0, tagHeader); err != nil {
		return abort(PhaseFreeze, fmt.Errorf("hpcm: execution state transfer: %w", err))
	}
	if err := inter.Send(eager, 0, tagEager); err != nil {
		return abort(PhaseFreeze, fmt.Errorf("hpcm: eager state transfer: %w", err))
	}
	var resumed resumeStatus
	if _, err := inter.Recv(&resumed, 0, tagResumed); err != nil {
		return abort(PhaseFreeze, fmt.Errorf("hpcm: resume handshake: %w", err))
	}
	if !resumed.OK {
		return abort(PhaseFreeze, fmt.Errorf("hpcm: destination %q failed to initialize: %s", rec.To, resumed.Err))
	}
	rec.ResumeAt = clock.Now()

	// Commit: identical bookkeeping to the classic path, plus the live
	// histograms.
	p.mu.Lock()
	p.records = append(p.records, rec)
	recIdx := len(p.records) - 1
	p.migrs++
	p.mu.Unlock()
	select {
	case p.events <- rec:
	default:
	}
	mw.metrics.Histogram(MetricDowntimeSeconds).Observe(rec.Downtime().Seconds())
	mw.metrics.Histogram(MetricPrecopyRounds).Observe(float64(rec.PrecopyRounds))
	mw.metrics.Histogram(MetricPagesResent).Observe(float64(rec.PagesResent))
	mw.observe(event(PhaseResume, nil))

	return c.completeMigration(inter, oldHP, hdr, lazy, recIdx, event)
}

// cancelLive stops an in-flight live attempt, if any: the driver quits at
// its next round boundary and the destination discards the partial region.
// Called when the process finishes (or is killed) with an attempt pending.
func (p *Process) cancelLive() {
	p.mu.Lock()
	att := p.live
	p.live = nil
	p.mu.Unlock()
	if att == nil {
		return
	}
	att.cancelled.Store(true)
	att.driver.Stop()
	select {
	case <-att.done:
		// The driver already finished and nobody will poll the result:
		// release the destination ourselves.
		att.dest.release()
	default:
		// The driver goroutine observes the stop and releases it.
	}
}

// bootstrapLive is the live path's initialized process: it assembles the
// paged region from precopy batches (each a BatchMeta plus one multi-part
// raw page message) until the freeze batch completes it, then runs the
// classic resume with the region pre-restored. A source that gives up
// (fallback, or an abort) kills it instead, which ends the receive.
func (p *Process) bootstrapLive(env *mpi.Env, parent *mpi.Comm) error {
	var (
		image     []byte
		pageBytes int
	)
	for {
		var meta livemig.BatchMeta
		if _, err := parent.Recv(&meta, 0, tagPrecopy); err != nil {
			return fmt.Errorf("hpcm: receive precopy batch: %w", err)
		}
		if image == nil {
			image = make([]byte, meta.Total)
			pageBytes = meta.PageBytes
		}
		if len(meta.PageIDs) > 0 {
			var parts [][]byte
			if _, err := parent.Recv(&parts, 0, tagPrecopy); err != nil {
				return fmt.Errorf("hpcm: receive precopy pages: %w", err)
			}
			for k, id := range meta.PageIDs {
				if k >= len(parts) || id < 0 || id*pageBytes >= len(image) {
					return fmt.Errorf("hpcm: malformed precopy batch: page %d of %d-byte region", id, len(image))
				}
				copy(image[id*pageBytes:], parts[k])
			}
		}
		if meta.Final {
			break
		}
	}
	return p.bootstrapResume(env, parent, image)
}

// sortLazyNames fills the header's lazy inventory smallest-first: the
// quickly-restored variables are the ones a resumed application is most
// likely to Await, so this maximises the restoration/execution overlap.
func sortLazyNames(hdr *header, lazy map[string][]byte) {
	for name := range lazy {
		hdr.LazyNames = append(hdr.LazyNames, name)
	}
	sort.Slice(hdr.LazyNames, func(i, j int) bool {
		a, b := hdr.LazyNames[i], hdr.LazyNames[j]
		if len(lazy[a]) != len(lazy[b]) {
			return len(lazy[a]) < len(lazy[b])
		}
		return a < b
	})
	for _, name := range hdr.LazyNames {
		hdr.LazySizes = append(hdr.LazySizes, int64(len(lazy[name])))
	}
}
