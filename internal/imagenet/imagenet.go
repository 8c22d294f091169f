// Package imagenet is the stand-in for the ImageNet ILSVRC test set the
// paper feeds the victim accelerators.
//
// The side channel never sees pixel values — only the CPU cost of
// fetching and resizing each source image, which depends on the image
// dimensions. The synthetic source therefore reproduces the ILSVRC size
// distribution (most images near 500×375, with realistic spread) from a
// deterministic stream, which is all the attack pipeline exercises.
package imagenet

import (
	"errors"

	"repro/internal/sim"
)

// Typical ILSVRC dimensions: the distribution is centred near 500×375
// with a long tail of larger photographs.
const (
	meanWidth  = 500
	meanHeight = 375
	minSide    = 96
	maxSide    = 1600
)

// Source produces a deterministic stream of synthetic query images.
type Source struct {
	rng *sim.Rand
}

// New returns a source drawing from the given stream.
func New(rng *sim.Rand) (*Source, error) {
	if rng == nil {
		return nil, errors.New("imagenet: nil random stream")
	}
	return &Source{rng: rng}, nil
}

// Next implements dpu.QuerySource: dimensions of the next test image.
func (s *Source) Next() (width, height int) {
	width = clampSide(meanWidth + int(s.rng.NormFloat64()*90))
	height = clampSide(meanHeight + int(s.rng.NormFloat64()*70))
	return width, height
}

func clampSide(v int) int {
	if v < minSide {
		return minSide
	}
	if v > maxSide {
		return maxSide
	}
	return v
}

// Fixed is a QuerySource returning constant dimensions, useful in tests
// and for noise-free schedule analysis.
type Fixed struct {
	Width, Height int
}

// Next implements dpu.QuerySource.
func (f Fixed) Next() (int, int) { return f.Width, f.Height }
