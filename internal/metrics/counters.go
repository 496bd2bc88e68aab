package metrics

import "sync/atomic"

// Control-plane counter names. Components increment these on the runtime's
// one metrics Registry so a run's robustness behaviour — retries,
// reconnects, aborted migrations, checkpoint restores — is observable in
// one place (the chaos experiment's summary, cmd/repro -metrics, reschedd's
// /metrics).
const (
	CtrProtoDropped       = "proto/msgs_dropped"
	CtrProtoDuplicated    = "proto/msgs_duplicated"
	CtrProtoDelayed       = "proto/msgs_delayed"
	CtrProtoRetries       = "proto/call_retries"
	CtrProtoReconnects    = "proto/reconnects"
	CtrProtoDeduped       = "proto/msgs_deduped"
	CtrStatusDropped      = "monitor/status_dropped"
	CtrStatusDuplicated   = "monitor/status_duplicated"
	CtrStatusDelayed      = "monitor/status_delayed"
	CtrReregisters        = "monitor/reregisters"
	CtrOrdersDeduped      = "commander/orders_deduped"
	CtrRegistryRestarts   = "registry/restarts"
	CtrRegistryRecoveries = "registry/recoveries"
	CtrStandbyPromotions  = "registry/standby_promotions"
	CtrPersistAppends     = "persist/appends"
	CtrPersistSnapshots   = "persist/snapshots"
	CtrProcResyncs        = "registry/proc_resyncs"
	CtrBatchFlushes       = "registry/batch_flushes"
	CtrBatchedReports     = "registry/batched_reports"
	CtrHealthReports      = "registry/health_reports"
	CtrMigrAborted        = "core/migrations_aborted"
	CtrMigrCommitted      = "core/migrations_committed"
	CtrCkptRestores       = "core/checkpoint_restores"
	CtrColdRestarts       = "core/cold_restarts"
	CtrResizeCommitted    = "malleable/resizes_committed"
	CtrResizeAborted      = "malleable/resizes_aborted"
	CtrRanksSpawned       = "malleable/ranks_spawned"
	CtrRanksRetired       = "malleable/ranks_retired"
	CtrJobsAdmitted       = "jobs/admitted"
	CtrJobsRequeued       = "jobs/requeued"
	CtrJobsShrunk         = "jobs/shrunk"
	CtrJobsMigrated       = "jobs/migrated"
	CtrJobsReservations   = "jobs/reservations_lost"
)

// Counter is a monotonic counter, created by name through Registry.Counter
// and safe for concurrent use. A nil *Counter is inert — Add and Inc no-op
// and Value reads 0 — so components count through an optional Registry
// without a configuration check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the counter's current value.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
