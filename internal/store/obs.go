package store

import "repro/internal/obs"

// Store metrics. Counters aggregate across every store in the process
// (a process normally runs one); the segment gauge reflects the store
// that most recently flushed or compacted, matching the engine-cache
// gauge convention. All are no-ops until the observability registry is
// enabled; the always-on per-store numbers live in Stats.
var (
	mFlushLatency = obs.Default.Histogram("store.flush")
	mPuts         = obs.Default.Counter("store.puts")
	mBatches      = obs.Default.Counter("store.flush.batches")
	mBatchRecords = obs.Default.Counter("store.flush.records")
	mAppendBytes  = obs.Default.Counter("store.append.bytes")
	mCompactions  = obs.Default.Counter("store.compactions")
	mTruncations  = obs.Default.Counter("store.truncations")
	mSegments     = obs.Default.Gauge("store.segments")
)
