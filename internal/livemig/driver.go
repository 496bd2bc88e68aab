package livemig

import (
	"errors"
	"fmt"
	"sync"
)

// BatchMeta announces one precopy batch on the migration intercommunicator.
// The pages themselves follow as one multi-part raw message (the mpi
// [][]byte fast path), so a round moves with a single copy end to end.
type BatchMeta struct {
	// Round is 1-based; round 1 carries the full region.
	Round int
	// PageIDs lists the pages in the batch, sorted; the k-th part is the
	// image of page PageIDs[k]. An empty batch sends no parts message.
	PageIDs []int
	// PageBytes and Total describe the region geometry so the destination
	// can allocate before the first page lands.
	PageBytes int
	Total     int
	// Final marks the freeze batch: the region is complete once it is
	// applied, and the classic execution-state transfer follows.
	Final bool
}

// SendFunc ships one batch to the destination. hpcm binds this to the
// migration intercommunicator; the call blocks for the batch's virtual
// transfer time, which is what paces precopy rounds on the virtual clock
// and makes rounds contend with application traffic on the simulated
// network.
type SendFunc func(meta BatchMeta, parts [][]byte) error

// RoundFunc observes one completed round: the pages it shipped and the
// pages dirtied while it was on the wire. hpcm raises its per-round
// migration event here, which is where fault injection can crash a host
// mid-precopy.
type RoundFunc func(round, sentPages, dirtyAfter int)

// ErrStopped reports a precopy iteration cancelled between rounds (the
// process finished or was killed while the driver was still copying).
var ErrStopped = errors.New("livemig: precopy stopped")

// Result summarises a finished precopy iteration. The destination holds
// every page as of ShippedGen; pages dirtied after it are the freeze
// residual.
type Result struct {
	// Decision is Freeze or Fallback — never Continue.
	Decision   Decision
	ShippedGen uint64
	Rounds     int
	// PagesSent counts pages shipped across all rounds; PagesResent is the
	// rounds 2..N share of it (the precopy overhead versus stop-and-copy).
	PagesSent   int
	PagesResent int
}

// Driver runs the iterative precopy rounds for one migration attempt while
// the application keeps computing. It owns no goroutine: the caller runs
// Run wherever it wants concurrency and uses Stop to cancel between rounds.
type Driver struct {
	cfg     Config
	pages   *Pages
	send    SendFunc
	onRound RoundFunc

	mu      sync.Mutex
	stopped bool
}

// NewDriver builds a driver for one attempt over the given region.
func NewDriver(cfg Config, pages *Pages, send SendFunc, onRound RoundFunc) (*Driver, error) {
	if pages == nil || pages.Len() == 0 {
		return nil, errors.New("livemig: driver needs a non-empty region")
	}
	if send == nil {
		return nil, errors.New("livemig: driver needs a send function")
	}
	return &Driver{cfg: cfg.withDefaults(), pages: pages, send: send, onRound: onRound}, nil
}

// Stop cancels the iteration at the next round boundary.
func (d *Driver) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
}

func (d *Driver) isStopped() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stopped
}

// Run executes precopy rounds until the convergence rule yields a terminal
// decision. It returns ErrStopped when cancelled, or the send error when a
// round fails on the wire; either way the attempt is over and the caller
// decides between abort and fallback.
func (d *Driver) Run() (Result, error) {
	var res Result
	total := d.pages.NumPages()
	shipped := uint64(0)
	for round := 1; ; round++ {
		if d.isStopped() {
			return res, ErrStopped
		}
		ids, parts, gen := d.pages.Snapshot(shipped)
		meta := BatchMeta{
			Round:     round,
			PageIDs:   ids,
			PageBytes: d.pages.PageSize(),
			Total:     d.pages.Len(),
		}
		if err := d.send(meta, parts); err != nil {
			return res, fmt.Errorf("livemig: precopy round %d: %w", round, err)
		}
		shipped = gen
		res.Rounds = round
		res.PagesSent += len(ids)
		if round > 1 {
			res.PagesResent += len(ids)
		}
		res.ShippedGen = shipped
		dirty := len(d.pages.DirtySince(shipped))
		if d.onRound != nil {
			d.onRound(round, len(ids), dirty)
		}
		switch dec := d.cfg.Decide(round, dirty, len(ids), total); dec {
		case Continue:
		default:
			res.Decision = dec
			return res, nil
		}
	}
}
