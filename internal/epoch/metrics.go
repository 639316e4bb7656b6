package epoch

import "diesel/internal/obs"

// Process-wide epoch-pipeline metrics on the default registry:
//
//	diesel_epoch_samples_total        files served in plan order
//	diesel_epoch_groups_total         chunk groups fetched
//	diesel_epoch_chunk_fallbacks_total files re-read via the batched API
//	                                  because their chunk failed to fetch
//	diesel_epoch_stall_seconds        time Next blocked waiting for a group
//	                                  (what the prefetch window exists to
//	                                  hide; window=0 exposes every fetch)
//	diesel_epoch_group_fetch_seconds  source latency for one whole group
//	diesel_epoch_hedges_total         hedged group fetches issued after the
//	                                  adaptive (p99-derived) delay
//	diesel_epoch_hedge_wins_total     hedges whose attempt supplied the
//	                                  group (the straggler lost the race)
//	diesel_epoch_hedge_wasted_total   hedges the primary beat anyway — the
//	                                  cost side of the hedging policy
//	diesel_epoch_deadline_trips_total fetch attempts cut down by
//	                                  WithGroupDeadline
//	diesel_epoch_reorder_served_total groups served ahead of plan order
//	                                  through the reorder window
var (
	mSamples = obs.Default().Counter("diesel_epoch_samples_total",
		"Files served by epoch readers in plan order.")
	mGroups = obs.Default().Counter("diesel_epoch_groups_total",
		"Chunk groups fetched by epoch readers.")
	mChunkFallbacks = obs.Default().Counter("diesel_epoch_chunk_fallbacks_total",
		"Files re-read via the batched file API after a chunk fetch failed.")
	mStallLat = obs.Default().Duration("diesel_epoch_stall_seconds",
		"Time the epoch consumer blocked waiting for the next group.")
	mGroupFetchLat = obs.Default().Duration("diesel_epoch_group_fetch_seconds",
		"Source latency fetching one whole chunk group.")
	mHedges = obs.Default().Counter("diesel_epoch_hedges_total",
		"Hedged group fetches issued after the adaptive delay.")
	mHedgeWins = obs.Default().Counter("diesel_epoch_hedge_wins_total",
		"Hedged group fetches won by the hedge attempt.")
	mHedgeWasted = obs.Default().Counter("diesel_epoch_hedge_wasted_total",
		"Hedged group fetches the primary attempt won anyway.")
	mDeadlineTrips = obs.Default().Counter("diesel_epoch_deadline_trips_total",
		"Group fetch attempts cancelled by the per-group deadline.")
	mReorderServed = obs.Default().Counter("diesel_epoch_reorder_served_total",
		"Groups served ahead of plan order through the reorder window.")
)
