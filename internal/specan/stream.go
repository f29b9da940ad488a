package specan

import (
	"fmt"

	"repro/internal/buf"
)

// PairSource produces two equal-length real streams one block at a
// time: Next fills a[:k] and b[:k] with the next k = min(len(a),
// remaining) samples and returns k, 0 when drained.
// emsim.EnvelopeStream satisfies it.
type PairSource interface {
	Next(a, b []float64) (int, error)
}

// SampleSource produces one complex stream one block at a time with
// the same contract. noise.Stream satisfies it.
type SampleSource interface {
	Next(dst []complex128) (int, error)
}

// fillPair reads exactly len(a) samples from src (looping over partial
// blocks), erroring if the source drains early.
func fillPair(src PairSource, a, b []float64) error {
	for off := 0; off < len(a); {
		k, err := src.Next(a[off:], b[off:])
		if err != nil {
			return err
		}
		if k == 0 {
			return fmt.Errorf("specan: envelope source drained after %d of %d samples", off, len(a))
		}
		off += k
	}
	return nil
}

// fill reads exactly len(dst) samples from src.
func fill(src SampleSource, dst []complex128) error {
	for off := 0; off < len(dst); {
		k, err := src.Next(dst[off:])
		if err != nil {
			return err
		}
		if k == 0 {
			return fmt.Errorf("specan: sample source drained after %d of %d samples", off, len(dst))
		}
		off += k
	}
	return nil
}

// drainPair consumes src to exhaustion, discarding samples into the
// scrap windows. The Welch walk ignores any tail shorter than half a
// segment, but the source still renders it, so it ends — rng included —
// exactly where a one-block render of the whole capture would.
func drainPair(src PairSource, a, b []float64) error {
	for {
		k, err := src.Next(a, b)
		if err != nil {
			return err
		}
		if k == 0 {
			return nil
		}
	}
}

func drain(src SampleSource, dst []complex128) error {
	for {
		k, err := src.Next(dst)
		if err != nil {
			return err
		}
		if k == 0 {
			return nil
		}
	}
}

// EnvelopeProductsStream computes the pair-Welch products of an
// n-sample envelope pair at the segmentation an n-sample capture gets:
// it consumes the pair from src segment by segment (working set
// O(segment)) and accumulates into dst (grown as needed; nil
// allocates). The products are bit-identical to
// dsp.WelchScratch.WelchPairInto over the materialized pair. They
// depend only on the envelopes, the sample rate, and the analyzer's
// RBW/window — not on group coefficients or the floor — so callers may
// cache and share them across every measurement rendered from the same
// envelope realization. The source is fully drained (see drainPair).
// Per-segment transforms fan out on the scratch's Pool
// (workpool.Default when nil); reduction order is fixed, so results do
// not depend on the pool.
func (a *Analyzer) EnvelopeProductsStream(n int, src PairSource, fs float64, s *Scratch, dst *PairPSD) (*PairPSD, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if src == nil {
		return nil, fmt.Errorf("specan: nil envelope source")
	}
	if s == nil {
		s = NewScratch()
	}
	seg, _, err := a.setup(n, fs, s)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &PairPSD{}
	}
	dst.grow(seg)
	half := seg / 2
	s.wa = s.growFloats(s.wa, seg)
	s.wb = s.growFloats(s.wb, seg)
	if err := s.pairFeed.Init(s.welch, dst.PA, dst.PB, dst.Cross, fs, s.Pool, s.Mem); err != nil {
		return nil, err
	}
	// First full segment, then slide by half: the second half of the
	// window becomes the first half of the next segment, so each
	// subsequent segment costs one half-window read.
	if err := fillPair(src, s.wa, s.wb); err != nil {
		return nil, err
	}
	if err := s.pairFeed.Feed(s.wa, s.wb); err != nil {
		return nil, err
	}
	for read := seg; read+half <= n; read += half {
		copy(s.wa[:half], s.wa[half:])
		copy(s.wb[:half], s.wb[half:])
		if err := fillPair(src, s.wa[half:], s.wb[half:]); err != nil {
			return nil, err
		}
		if err := s.pairFeed.Feed(s.wa, s.wb); err != nil {
			return nil, err
		}
	}
	// The window contents are already consumed (Feed scatters before
	// returning), so the tail can be discarded into the windows.
	if err := drainPair(src, s.wa, s.wb); err != nil {
		return nil, err
	}
	if err := s.pairFeed.Finish(); err != nil {
		return nil, err
	}
	return dst, nil
}

// NoiseProductsStream computes the Welch PSD of an n-sample complex
// stream: src is consumed segment by segment and the PSD accumulated
// into dst (grown as needed; nil allocates), bit-identical to
// dsp.WelchScratch.WelchInto over the materialized capture. Like the
// envelope products, the result is coefficient- and floor-independent
// and may be cached and shared. The source is fully drained, with the
// same pool and ordering guarantees as EnvelopeProductsStream.
func (a *Analyzer) NoiseProductsStream(n int, src SampleSource, fs float64, s *Scratch, dst []float64) ([]float64, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if src == nil {
		return nil, fmt.Errorf("specan: nil sample source")
	}
	if s == nil {
		s = NewScratch()
	}
	seg, _, err := a.setup(n, fs, s)
	if err != nil {
		return nil, err
	}
	dst = buf.Grow(dst, seg) // published product: heap, never arena
	half := seg / 2
	s.wn = s.growComplexes(s.wn, seg)
	if err := s.noiseFeed.Init(s.welch, dst, fs, s.Pool, s.Mem); err != nil {
		return nil, err
	}
	if err := fill(src, s.wn); err != nil {
		return nil, err
	}
	if err := s.noiseFeed.Feed(s.wn); err != nil {
		return nil, err
	}
	for read := seg; read+half <= n; read += half {
		copy(s.wn[:half], s.wn[half:])
		if err := fill(src, s.wn[half:]); err != nil {
			return nil, err
		}
		if err := s.noiseFeed.Feed(s.wn); err != nil {
			return nil, err
		}
	}
	if err := drain(src, s.wn); err != nil {
		return nil, err
	}
	if err := s.noiseFeed.Finish(); err != nil {
		return nil, err
	}
	return dst, nil
}
