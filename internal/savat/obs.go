package savat

import "repro/internal/obs"

// Measurement-pipeline stage metrics, resolved once on the process
// registry so no instrumentation site ever pays a map lookup. Every
// handle is a no-op until obs.Default is enabled.
var (
	mMeasure     = obs.Default.Histogram("savat.measure")           // the whole pipeline, kernel to SAVAT value
	mCalibrate   = obs.Default.Histogram("savat.stage.calibrate")   // kernel construction with loop-count calibration
	mAlternation = obs.Default.Histogram("savat.stage.alternation") // cycle-accurate alternation simulation
	mRadiate     = obs.Default.Histogram("savat.stage.radiate")     // radiator init + group phase amplitudes
	mSynthesize  = obs.Default.Histogram("savat.stage.synthesize")  // product synthesis (streaming) or time-domain rendering (reference)
	mRender      = obs.Default.Histogram("savat.stage.render")      // band power (or full trace) from the products
	mAltHits     = obs.Default.Counter("savat.altcache.hits")       // scratch alternation-cache hits
	mAltMisses   = obs.Default.Counter("savat.altcache.misses")     // scratch alternation-cache misses
)
