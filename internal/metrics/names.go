package metrics

// Well-known metric names shared by the instrumented layers (mpi, stencil,
// harness) and the consumers (flightreport -metrics, benchmark/, the Prometheus
// endpoint). Label conventions are documented in docs/observability.md:
//
//	impl   exchange implementation (harness.Impl.String()); the per-phase
//	       family also carries rank="all" aggregate series per impl
//	rank   MPI rank id, or "all" for the cross-rank aggregate
//	phase  calc | pack | call | wait
const (
	// PhaseSeconds: histogram of per-timestep phase durations
	// (labels: impl, rank, phase).
	PhaseSeconds = "brick_phase_seconds"
	// GStencilsGauge: end-of-run throughput in GStencil/s (labels: impl).
	GStencilsGauge = "brick_gstencils"
	// MsgsPerExchangeGauge: messages each rank sends per exchange
	// (labels: impl).
	MsgsPerExchangeGauge = "brick_msgs_per_exchange"

	// Plan-reuse counters of the persistent exchange lifecycle, mirrored
	// from each rank's Exchanger.Stats() at the end of a harness run
	// (labels: impl, rank, variant). One plan built with many starts is the
	// point of the persistent design: starts_total / plans_built_total is
	// the reuse factor.
	//
	// PlansBuiltTotal: compiled exchange plans built.
	PlansBuiltTotal = "exchange_plans_built_total"
	// PlanStartsTotal: times a compiled plan was started.
	PlanStartsTotal = "exchange_plan_starts_total"
	// PlanStartBytesTotal: payload bytes posted by those starts.
	PlanStartBytesTotal = "exchange_plan_start_bytes_total"

	// MPISendSeconds: histogram of per-message send latency from post to
	// completion: a one-shot send until delivered (chan) or handed to the
	// segment or stream (shmem, tcp), a persistent send from Start to Wait
	// (labels: rank).
	MPISendSeconds = "mpi_send_seconds"
	// MPISendBytes: histogram of per-message payload sizes at Isend
	// (labels: rank).
	MPISendBytes = "mpi_send_bytes"
	// MPIRecvMatchWaitSeconds: histogram of posted-receive match wait — the
	// time a posted Irecv waited before a send matched and delivered
	// (labels: rank).
	MPIRecvMatchWaitSeconds = "mpi_recv_match_wait_seconds"
	// MPIRecvBytes: histogram of delivered payload sizes (labels: rank).
	MPIRecvBytes = "mpi_recv_bytes"
	// MPIWaitSeconds: histogram of time blocked in Request.Wait
	// (labels: rank).
	MPIWaitSeconds = "mpi_wait_seconds"
	// MPISentMsgsTotal/...: traffic counters mirrored from
	// Comm.TrafficSnapshot at the end of a harness run
	// (labels: impl, rank).
	MPISentMsgsTotal  = "mpi_sent_messages_total"
	MPISentBytesTotal = "mpi_sent_bytes_total"
	MPIRecvMsgsTotal  = "mpi_received_messages_total"
	MPIRecvBytesTotal = "mpi_received_bytes_total"

	// FaultInjectedTotal: counter of faults injected by the internal/fault
	// injector (labels: kind = delay|stall|panic|mapfail|allocfail, rank).
	// Zero series exist when injection is disabled — the hooks cost only a
	// nil check.
	FaultInjectedTotal = "fault_injected_total"
	// ExchangeDegradedTotal: counter of MemMap→copy degradations — times an
	// exchange view fell back to copy-based windows instead of aliasing
	// virtual-memory views (labels: impl, rank, reason =
	// heap-storage|unmapped-arena|map-failed|forced).
	ExchangeDegradedTotal = "exchange_degraded_total"

	// Checkpoint/recovery families of the internal/ckpt + harness recovery
	// driver (PR 5).
	//
	// CkptBytesTotal: counter of snapshot payload bytes spilled
	// (labels: impl, rank).
	CkptBytesTotal = "ckpt_bytes_total"
	// CkptEpochsTotal: counter of committed world-wide checkpoint epochs
	// (labels: impl).
	CkptEpochsTotal = "ckpt_epochs_total"
	// RecoveryTotal: counter of recovery verdicts (labels: rank = failed
	// rank or "-1" for watchdog aborts, outcome = recovered|budget-exhausted).
	RecoveryTotal = "recovery_total"

	// Flight-recorder families (internal/flight, PR 7), mirrored from each
	// rank's ring at the end of a harness run.
	//
	// FlightEventsTotal: counter of flight events recorded, including ones
	// later overwritten by ring wraparound (labels: rank).
	FlightEventsTotal = "flight_events_total"
	// FlightEventsDroppedTotal: counter of flight events lost to ring
	// wraparound — a persistently high ratio to FlightEventsTotal means
	// -flight-depth is too small for the step cadence (labels: rank).
	FlightEventsDroppedTotal = "flight_events_dropped_total"

	// Transport-connection families (tcp backend, PR 10).
	//
	// TransportReconnectsTotal: counter of data-connection re-establishments
	// after a previously working connection to a peer dropped (labels: rank,
	// peer). A flapping link shows up here before it shows up as a stall.
	TransportReconnectsTotal = "transport_reconnects_total"
	// TransportHeartbeatMissesTotal: counter of heartbeat-interval misses —
	// an accepted peer connection silent past the miss threshold but not yet
	// declared dead (labels: rank, peer).
	TransportHeartbeatMissesTotal = "transport_heartbeat_misses_total"
	// TransportFramesTotal: counter of wire frames handled by the tcp
	// backend (labels: kind = data|pdata|ppart|hb|stale-drop|dup-drop|
	// net-drop|net-dup).
	TransportFramesTotal = "transport_frames_total"
	// TransportWritesTotal: counter of the tcp backend's vectored data
	// writes — one per destination per API call that sent frames, however
	// many frames it carried; an injected partition or a redial adds one.
	TransportWritesTotal = "transport_writes_total"

	// StencilTileSeconds: histogram of per-tile kernel execution time in
	// the worker pool (no labels; the pool is process-wide).
	StencilTileSeconds = "stencil_tile_seconds"
	// PoolQueueDepth: gauge of tasks queued to the pool at submit time.
	PoolQueueDepth = "stencil_pool_queue_depth"
	// PoolTilesTotal: counter of tiles executed by the pool.
	PoolTilesTotal = "stencil_pool_tiles_total"
	// PoolBusySeconds: gauge accumulating total worker busy time; divided
	// by workers × wall time it gives pool utilization.
	PoolBusySeconds = "stencil_pool_busy_seconds_total"
	// PoolWorkers: gauge of the pool's worker count.
	PoolWorkers = "stencil_pool_workers"
)
