package hpcm

import (
	"fmt"
	"sync"

	"autoresched/internal/mpi"
)

// Wire tags of the state-transfer protocol on the parent/child
// intercommunicator.
const (
	tagHeader   = 1 // execution state: label, lazy inventory, memory size
	tagEager    = 2 // eager memory image
	tagLazy     = 3 // lazy state chunks
	tagResumed  = 4 // child -> parent: execution resumed
	tagRestored = 5 // child -> parent: all lazy state restored
	tagPrecopy  = 6 // live path: precopy batch metadata and page batches
)

// header is the execution-state message: everything the initialized process
// needs before it can take over the computation.
type header struct {
	Label     string
	LazyNames []string
	LazySizes []int64
	Memory    int64
	// PagesName, on the live path, names the paged region the destination
	// already assembled from precopy batches; it is excluded from LazyNames.
	PagesName string
}

// resumeStatus reports whether the initialized process took over. The child
// always sends one before doing anything else that can block the source, so
// a destination-side failure never wedges the migrating process.
type resumeStatus struct {
	OK  bool
	Err string
}

// initialized is the destination's initialized process as the migrating
// source holds it. Every abort before the commit point releases it: a
// destination blocked on state that will never come would otherwise wait
// for good, and killing it closes its mailbox, which wakes the receive.
type initialized struct {
	env  chan *mpi.Env // the process's Env, sent as soon as it runs
	once sync.Once
}

func newInitialized() *initialized { return &initialized{env: make(chan *mpi.Env, 1)} }

// main wraps the initialized process's entry point so it publishes its Env.
func (d *initialized) main(boot func(env *mpi.Env) error) mpi.Main {
	return func(env *mpi.Env) error {
		d.env <- env
		return boot(env)
	}
}

// release kills the initialized process; calls after the first are no-ops.
// The process must have been launched.
func (d *initialized) release() {
	d.once.Do(func() { (<-d.env).Kill() })
}

// migrate ships this incarnation to sig.cmd's destination. It runs at a
// poll-point on the source and returns ErrMigrated on success. A failure
// before the commit point returns a *MigrationFailure (Committed=false):
// the incarnation gives up so the runtime can fall back to the last
// checkpoint and retry on a fresh host. A failure after the commit point
// also returns ErrMigrated — the destination owns the process and its
// failed restoration decides the process's fate.
func (c *Context) migrate(label string, sig pendingCmd) error {
	p := c.proc
	mw := p.mw
	clock := mw.clock
	cmd := sig.cmd

	rec := Record{
		From:        c.env.Host,
		To:          cmd.DestHost,
		Label:       label,
		CommandAt:   sig.at,
		PollPointAt: clock.Now(),
	}
	event := func(phase string, err error) MigrationEvent {
		return MigrationEvent{
			Proc: p.name, From: rec.From, To: rec.To,
			Label: label, Phase: phase, Err: err,
		}
	}
	var dest *initialized // set once the destination process exists
	abort := func(phase string, err error) error {
		if dest != nil {
			dest.release()
		}
		mf := &MigrationFailure{
			From: rec.From, To: rec.To, Label: label, Phase: phase, Err: err,
		}
		mw.observe(event(PhaseAborted, mf))
		return mf
	}

	mw.observe(event(PhaseStart, nil))

	eager, lazy, err := c.state.collect("")
	if err != nil {
		return abort(PhaseStart, fmt.Errorf("hpcm: state collection: %w", err))
	}
	hdr := header{Label: label}
	// Stream smallest blobs first (HPCM's restoration likewise prioritises
	// eagerly needed data).
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

	// Obtain the initialized process on the destination: connect to a
	// pre-initialized one if available (the Section 5.2 optimisation),
	// otherwise create it now through dynamic process creation
	// (MPI_Comm_spawn; charged with the LAM-like spawn latency). Either
	// way an intercommunicator carries the state.
	var inter *mpi.Comm
	if pre, ok := p.takePreinit(cmd.DestHost); ok {
		var cerr error
		inter, cerr = c.env.Connect(pre.port, c.env.World)
		if cerr != nil {
			inter = nil // pre-initialized process gone; fall back to spawn
		} else {
			dest = pre.proc
		}
	}
	if inter == nil {
		child := newInitialized()
		var serr error
		inter, serr = c.env.Spawn([]string{cmd.DestHost}, child.main(func(env *mpi.Env) error {
			return p.bootstrap(env, env.Parent)
		}))
		if serr != nil {
			return abort(PhaseStart, fmt.Errorf("hpcm: dynamic process creation on %q: %w", cmd.DestHost, serr))
		}
		dest = child
	}
	rec.InitDone = clock.Now()
	mw.observe(event(PhaseInit, nil))

	// The communication state — queued undelivered messages — moves with
	// the process; the mailbox lives with the process identity, so only
	// the wire time is charged.
	if pending := p.pendingBytes(); pending > 0 {
		rec.CommBytes = pending
		if err := mw.universe.Transport().Send(c.env.Host, cmd.DestHost, pending); err != nil {
			return abort(PhaseInit, fmt.Errorf("hpcm: communication state transfer: %w", err))
		}
	}

	// Execution state and eager memory state transfer synchronously; the
	// destination resumes as soon as it has them.
	if err := inter.Send(hdr, 0, tagHeader); err != nil {
		return abort(PhaseInit, fmt.Errorf("hpcm: execution state transfer: %w", err))
	}
	if err := inter.Send(eager, 0, tagEager); err != nil {
		return abort(PhaseInit, fmt.Errorf("hpcm: eager state transfer: %w", err))
	}
	var resumed resumeStatus
	if _, err := inter.Recv(&resumed, 0, tagResumed); err != nil {
		return abort(PhaseInit, fmt.Errorf("hpcm: resume handshake: %w", err))
	}
	if !resumed.OK {
		return abort(PhaseInit, fmt.Errorf("hpcm: destination %q failed to initialize: %s", cmd.DestHost, resumed.Err))
	}
	rec.ResumeAt = clock.Now()

	// The migration is committed: the destination owns the process. Record
	// it now (RestoreDone is filled in below) so observers that synchronise
	// on process completion always see the count.
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
	mw.observe(event(PhaseResume, nil))

	return c.completeMigration(inter, oldHP, hdr, lazy, recIdx, event)
}

// completeMigration is the post-commit tail shared by the classic and live
// migration paths: lazy (bulk) state streams in chunks while the destination
// already executes — the data restoration / execution overlap of Section
// 5.2 — then the restore handshake closes the record and the source leaves
// its host's process table. A failure here is post-commit: the destination
// owns the process but its bulk state will never fully arrive, so the
// inbound stream is failed (destination Awaits unblock with the error), the
// source cleans up, and ErrMigrated is still returned — the destination
// incarnation's fate decides the process's fate.
func (c *Context) completeMigration(inter *mpi.Comm, oldHP HostProc, hdr header, lazy map[string][]byte, recIdx int, event func(phase string, err error) MigrationEvent) error {
	p := c.proc
	mw := p.mw
	clock := mw.clock

	postFail := func(err error) error {
		ev := event(PhaseFailed, nil)
		mf := &MigrationFailure{
			From: ev.From, To: ev.To, Label: ev.Label,
			Phase: PhaseRestore, Committed: true, Err: err,
		}
		ev.Err = mf
		p.failSaved(mf)
		mw.observe(ev)
		oldHP.Exit()
		p.mu.Lock()
		p.records[recIdx].RestoreDone = clock.Now()
		p.mu.Unlock()
		return ErrMigrated
	}

	// Each blob goes as raw chunks (the mpi []byte fast path) in the
	// header's inventory order; the destination knows every blob's size, so
	// no per-chunk metadata travels. A zero-size blob still sends one empty
	// chunk.
	for _, name := range hdr.LazyNames {
		data := lazy[name]
		for off := 0; ; off += mw.chunk {
			end := min(off+mw.chunk, len(data))
			if err := inter.Send(data[off:end], 0, tagLazy); err != nil {
				return postFail(fmt.Errorf("hpcm: lazy state transfer of %q: %w", name, err))
			}
			if end == len(data) {
				break
			}
		}
	}
	var restored bool
	if _, err := inter.Recv(&restored, 0, tagRestored); err != nil {
		return postFail(fmt.Errorf("hpcm: restore handshake: %w", err))
	}

	// Source-side cleanup: leave the source host's process table.
	oldHP.Exit()

	p.mu.Lock()
	p.records[recIdx].RestoreDone = clock.Now()
	done := p.records[recIdx]
	p.mu.Unlock()
	mw.metrics.Histogram(MetricMigrationSeconds).Observe(done.MigrationTime().Seconds())
	mw.observe(event(PhaseRestore, nil))
	return ErrMigrated
}

// bootstrap is the initialized process: it restores execution and eager
// memory state, takes over the computation, and keeps restoring lazy state
// in the background. parent is the intercommunicator to the migrating
// process (the spawn parent, or the connection a pre-initialized process
// accepted).
func (p *Process) bootstrap(env *mpi.Env, parent *mpi.Comm) error {
	return p.bootstrapResume(env, parent, nil)
}

// bootstrapResume is bootstrap's body, shared with the live path: region,
// when non-nil, is the paged memory image already assembled from precopy
// batches, installed under the header's PagesName so the application's
// Await finds it complete.
func (p *Process) bootstrapResume(env *mpi.Env, parent *mpi.Comm, region []byte) error {
	var hdr header
	if _, err := parent.Recv(&hdr, 0, tagHeader); err != nil {
		return fmt.Errorf("hpcm: receive execution state: %w", err)
	}
	saved := newSavedState()
	if _, err := parent.Recv(&saved.eager, 0, tagEager); err != nil {
		return fmt.Errorf("hpcm: receive eager state: %w", err)
	}
	if region != nil && hdr.PagesName != "" {
		saved.completeLazy(hdr.PagesName, region)
	}

	// The initialized process joins the destination host's process table
	// before taking over. Failures are reported back so the source can
	// resume locally instead of hanging.
	hp, err := p.mw.hosts.Attach(env.Host, p.name, hdr.Memory)
	if err != nil {
		_ = parent.Send(resumeStatus{Err: err.Error()}, 0, tagResumed)
		return fmt.Errorf("hpcm: attach on destination %q: %w", env.Host, err)
	}
	p.mu.Lock()
	p.host = env.Host
	p.hostProc = hp
	p.saved = saved // the source fails this stream if post-commit transfer breaks
	p.mu.Unlock()

	if err := parent.Send(resumeStatus{OK: true}, 0, tagResumed); err != nil {
		return err
	}

	// Background restoration of lazy state, overlapping execution.
	restoreErr := make(chan error, 1)
	go func() {
		err := restoreLazy(hdr, saved, func() ([]byte, error) {
			var chunk []byte
			_, err := parent.Recv(&chunk, 0, tagLazy)
			return chunk, err
		})
		if err == nil {
			err = parent.Send(true, 0, tagRestored)
		}
		restoreErr <- err
	}()

	err = p.incarnation(env, hdr.Label, saved)
	// A stream the source failed after the commit point never completes:
	// stop waiting for it. Returning closes this process's endpoint, which
	// ends the restore goroutine's receive.
	var rerr error
	select {
	case rerr = <-restoreErr:
	case <-saved.dead:
		rerr = saved.err // written once, before dead closed
	}
	if rerr != nil && err == nil {
		err = fmt.Errorf("hpcm: lazy restoration: %w", rerr)
	}
	return err
}

// restoreLazy reads the lazy stream in the header's inventory order and
// installs each blob as soon as its last byte has arrived.
func restoreLazy(hdr header, saved *savedState, recv func() ([]byte, error)) error {
	for i, name := range hdr.LazyNames {
		blob, err := assembleLazy(hdr.LazySizes[i], recv)
		if err != nil {
			return fmt.Errorf("%q: %w", name, err)
		}
		saved.completeLazy(name, blob)
	}
	return nil
}

// assembleLazy reassembles one size-byte lazy blob from its raw chunks,
// reading until size bytes have arrived (a zero-size blob is one empty
// chunk). In-process every chunk is a subslice of the sender's one blob, so
// a chunk that continues the previous one's backing array extends the blob
// by reslicing: the blob is reassembled in place, without a copy. The first
// chunk that does not continue it moves the blob into a buffer the assembly
// owns. The assembly never writes into memory it received.
func assembleLazy(size int64, recv func() ([]byte, error)) ([]byte, error) {
	var blob []byte
	owned := false
	for first := true; first || int64(len(blob)) < size; first = false {
		chunk, err := recv()
		if err != nil {
			return nil, err
		}
		switch {
		case first:
			blob = chunk
		case owned:
			blob = append(blob, chunk...)
		case len(chunk) > 0 && len(blob) < cap(blob) && &blob[:len(blob)+1][len(blob)] == &chunk[0]:
			blob = blob[:len(blob)+len(chunk)]
		default:
			own := make([]byte, len(blob), size)
			copy(own, blob)
			blob, owned = append(own, chunk...), true
		}
		if int64(len(blob)) > size {
			return nil, fmt.Errorf("lazy blob overran its %d-byte size", size)
		}
	}
	return blob, nil
}
