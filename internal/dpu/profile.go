package dpu

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// Profiling: where a model's inference time goes on the engine's
// roofline, layer by layer. The per-layer durations are exactly the
// segment lengths the side channel modulates, so the profile explains a
// model's Fig. 3 signature: long compute-bound stretches read as high
// current plateaus, memory-bound layers as DDR bursts.

// Bottleneck classifies what limits a layer.
type Bottleneck string

// Bottleneck kinds.
const (
	// ComputeBound layers saturate the MAC array.
	ComputeBound Bottleneck = "compute"
	// MemoryBound layers saturate the DDR bandwidth.
	MemoryBound Bottleneck = "memory"
	// CPUBound layers run on the processor (softmax).
	CPUBound Bottleneck = "cpu"
)

// LayerProfile is one layer's schedule entry.
type LayerProfile struct {
	// Name and Type of the layer.
	Name string
	Type LayerType
	// Duration on the engine's roofline.
	Duration time.Duration
	// Bound is the limiting resource.
	Bound Bottleneck
	// ComputeUtil is the MAC-array utilization during the layer.
	ComputeUtil float64
	// MemoryUtil is the DDR-bandwidth utilization during the layer.
	MemoryUtil float64
}

// Profile is a model's full schedule analysis.
type Profile struct {
	// Model profiled.
	Model string
	// Layers in execution order.
	Layers []LayerProfile
	// Total inference time (excluding preprocessing and gaps).
	Total time.Duration
	// ComputeTime and MemoryTime are the durations dominated by each
	// resource.
	ComputeTime time.Duration
	MemoryTime  time.Duration
}

// ProfileModel analyzes a model on the engine's roofline.
func ProfileModel(m *Model) (*Profile, error) {
	if m == nil {
		return nil, errors.New("dpu: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &Profile{Model: m.Name}
	for i := range m.Layers {
		l := &m.Layers[i]
		lp := LayerProfile{Name: l.Name, Type: l.Type}
		if l.Type == Softmax {
			lp.Duration, lp.Bound = softmaxTime, CPUBound
		} else {
			dur, compute, memory, ok := roofline(l)
			if !ok {
				continue
			}
			lp.Duration, lp.ComputeUtil, lp.MemoryUtil = dur, compute, memory
			// The bound resource runs at exactly 1, the other at a ratio
			// strictly below it, which rounds below 1.
			lp.Bound = ComputeBound
			if memory > compute {
				lp.Bound = MemoryBound
			}
		}
		p.Layers = append(p.Layers, lp)
		p.Total += lp.Duration
		switch lp.Bound {
		case ComputeBound:
			p.ComputeTime += lp.Duration
		case MemoryBound:
			p.MemoryTime += lp.Duration
		}
	}
	if len(p.Layers) == 0 {
		return nil, fmt.Errorf("dpu: model %s has no schedulable layers", m.Name)
	}
	return p, nil
}

// TopLayers returns the n longest layers, longest first.
func (p *Profile) TopLayers(n int) []LayerProfile {
	out := append([]LayerProfile(nil), p.Layers...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Render writes a human-readable profile summary.
func (p *Profile) Render(w io.Writer, topN int) error {
	_, err := fmt.Fprintf(w, "%s: %v per inference (%.0f%% compute-bound, %.0f%% memory-bound)\n",
		p.Model, p.Total.Round(10*time.Microsecond),
		100*p.ComputeTime.Seconds()/p.Total.Seconds(),
		100*p.MemoryTime.Seconds()/p.Total.Seconds())
	if err != nil {
		return err
	}
	for _, l := range p.TopLayers(topN) {
		if _, err := fmt.Fprintf(w, "  %-14s %-8s %-8s %8v  (mac %.0f%%, ddr %.0f%%)\n",
			l.Name, l.Type, l.Bound, l.Duration.Round(time.Microsecond),
			100*l.ComputeUtil, 100*l.MemoryUtil); err != nil {
			return err
		}
	}
	return nil
}
