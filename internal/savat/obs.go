package savat

import "repro/internal/obs"

// measureObs bundles the measurement pipeline's stage-metric handles,
// resolved once per registry so no instrumentation site ever pays a
// map lookup. The default instance binds to obs.Default; a Measurer
// built with WithObs carries its own. Every handle is a no-op until
// its registry is enabled.
type measureObs struct {
	measure     *obs.Histogram // the whole pipeline, kernel to SAVAT value
	calibrate   *obs.Histogram // kernel construction with loop-count calibration
	alternation *obs.Histogram // cycle-accurate alternation simulation
	radiate     *obs.Histogram // radiator init + group phase amplitudes
	synthesize  *obs.Histogram // buffered/reference time-domain rendering
	render      *obs.Histogram // band power (or full trace) from the products
	altHits     *obs.Counter   // scratch alternation-cache hits
	altMisses   *obs.Counter   // scratch alternation-cache misses
}

func newMeasureObs(r *obs.Registry) *measureObs {
	return &measureObs{
		measure:     r.Histogram("savat.measure"),
		calibrate:   r.Histogram("savat.stage.calibrate"),
		alternation: r.Histogram("savat.stage.alternation"),
		radiate:     r.Histogram("savat.stage.radiate"),
		synthesize:  r.Histogram("savat.stage.synthesize"),
		render:      r.Histogram("savat.stage.render"),
		altHits:     r.Counter("savat.altcache.hits"),
		altMisses:   r.Counter("savat.altcache.misses"),
	}
}

var defaultMeasureObs = newMeasureObs(obs.Default)
