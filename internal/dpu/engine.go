package dpu

import (
	"errors"
	"time"

	"repro/internal/fabric"
)

// QuerySource supplies inference inputs. Next returns the source image
// dimensions of the next query; the engine models the CPU-side resize
// from that size to the model's input size.
type QuerySource interface {
	Next() (width, height int)
}

// EngineConfig describes a DPU instance and its host-board hooks.
type EngineConfig struct {
	// ClockHz is the MAC-array clock; zero means 300 MHz (the ZCU102
	// deployment's fabric clock).
	ClockHz float64
	// MACsPerCycle is the array's peak multiply-accumulates per cycle;
	// zero means 2048 (a B4096-class DPU: 4096 INT8 ops/cycle).
	MACsPerCycle float64
	// ConvEfficiency is the achieved fraction of peak on standard
	// convolutions; zero means 0.7.
	ConvEfficiency float64
	// DWConvEfficiency is the achieved fraction on depthwise
	// convolutions, which map poorly to the array; zero means 0.25.
	DWConvEfficiency float64
	// DDRBandwidth is the effective memory bandwidth in bytes/s; zero
	// means 10 GB/s (DDR4-2400 ×64 with realistic efficiency).
	DDRBandwidth float64
	// PeakElements is the PL toggling-element count at full MAC-array
	// utilization; zero means 30000.
	PeakElements float64
	// IdleElements is the deployed-but-idle DPU activity (clock tree,
	// instruction fetch); zero means 800.
	IdleElements float64
	// PreprocSecsPerMPix is the CPU cost of resizing one megapixel of
	// source image; zero means 20 ms/MPix.
	PreprocSecsPerMPix float64
	// Queries supplies inference inputs. Required.
	Queries QuerySource
	// SetCPUFullUtil, SetCPULowUtil, SetDDRUtil push the engine's
	// CPU/memory demand into the host board each tick. All required.
	SetCPUFullUtil func(float64)
	SetCPULowUtil  func(float64)
	SetDDRUtil     func(float64)
}

// segment is one homogeneous phase of a query's execution.
type segment struct {
	dur      time.Duration
	elements float64 // PL toggling elements
	cpuFull  float64 // full-power CPU utilization
	cpuLow   float64 // low-power CPU utilization
	ddr      float64 // DDR bandwidth utilization
}

// Engine is a deployed DPU accelerator. It implements fabric.Circuit;
// its CPU and DDR demands are pushed through the board hooks.
type Engine struct {
	cfg EngineConfig

	model   *Model
	running bool

	segments []segment
	segIdx   int
	segDone  time.Duration

	inferences uint64

	// per-tick outputs
	activity float64
}

// NewEngine validates cfg and returns an idle engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.ClockHz == 0 {
		cfg.ClockHz = 300e6
	}
	if cfg.MACsPerCycle == 0 {
		cfg.MACsPerCycle = 2048
	}
	if cfg.ConvEfficiency == 0 {
		cfg.ConvEfficiency = 0.7
	}
	if cfg.DWConvEfficiency == 0 {
		cfg.DWConvEfficiency = 0.25
	}
	if cfg.DDRBandwidth == 0 {
		cfg.DDRBandwidth = 10e9
	}
	if cfg.PeakElements == 0 {
		cfg.PeakElements = 30000
	}
	if cfg.IdleElements == 0 {
		cfg.IdleElements = 800
	}
	if cfg.PreprocSecsPerMPix == 0 {
		cfg.PreprocSecsPerMPix = 0.020
	}
	if cfg.ClockHz < 0 || cfg.MACsPerCycle < 0 || cfg.ConvEfficiency <= 0 ||
		cfg.ConvEfficiency > 1 || cfg.DWConvEfficiency <= 0 || cfg.DWConvEfficiency > 1 ||
		cfg.DDRBandwidth < 0 || cfg.PeakElements < 0 || cfg.IdleElements < 0 ||
		cfg.PreprocSecsPerMPix < 0 {
		return nil, errors.New("dpu: negative or out-of-range engine parameter")
	}
	if cfg.Queries == nil {
		return nil, errors.New("dpu: engine needs a query source")
	}
	if cfg.SetCPUFullUtil == nil || cfg.SetCPULowUtil == nil || cfg.SetDDRUtil == nil {
		return nil, errors.New("dpu: engine needs all three board hooks")
	}
	return &Engine{cfg: cfg}, nil
}

// LoadModel deploys a model; inference starts on the next Step. The
// paper's victim runs each model in series: Load, run for 5 s, Load the
// next.
func (e *Engine) LoadModel(m *Model) error {
	if m == nil {
		return errors.New("dpu: nil model")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	e.model = m
	e.running = true
	e.segments = nil
	e.segIdx = 0
	e.segDone = 0
	return nil
}

// Stop halts inference; the DPU stays deployed (idle activity only).
func (e *Engine) Stop() { e.running = false }

// Model returns the loaded model, or nil.
func (e *Engine) Model() *Model { return e.model }

// Inferences returns the number of completed queries.
func (e *Engine) Inferences() uint64 { return e.inferences }

// scheduleQuery builds the segment list for one query against the
// loaded model.
func (e *Engine) scheduleQuery() {
	m := e.model
	segs := e.segments[:0]

	// Phase 1: CPU preprocessing — fetch and resize the source image.
	w, h := e.cfg.Queries.Next()
	mpix := float64(w*h) / 1e6
	pre := time.Duration(mpix * e.cfg.PreprocSecsPerMPix * float64(time.Second))
	if pre < 100*time.Microsecond {
		pre = 100 * time.Microsecond
	}
	segs = append(segs, segment{
		dur: pre, elements: e.cfg.IdleElements,
		cpuFull: 0.85, cpuLow: 0.30, ddr: 0.15,
	})

	// Phase 2: the compute schedule, one per-layer roofline segment.
	cycleRate := e.cfg.MACsPerCycle * e.cfg.ClockHz
	for _, l := range m.Layers {
		eff := e.cfg.ConvEfficiency
		switch l.Type {
		case DWConv:
			eff = e.cfg.DWConvEfficiency
		case Pool, EltWise:
			eff = e.cfg.ConvEfficiency // no MACs anyway; memory dominated
		case Softmax:
			// Classifier head runs on the CPU after output transfer.
			segs = append(segs, segment{
				dur: 500 * time.Microsecond, elements: e.cfg.IdleElements,
				cpuFull: 0.6, cpuLow: 0.2, ddr: 0.05,
			})
			continue
		}
		tc := float64(l.MACs) / (cycleRate * eff)
		tm := float64(l.WeightBytes+l.ActivationBytes) / e.cfg.DDRBandwidth
		dur := tc
		if tm > dur {
			dur = tm
		}
		if dur <= 0 {
			continue
		}
		computeUtil := tc / dur
		memUtil := tm / dur
		segs = append(segs, segment{
			dur:      time.Duration(dur * float64(time.Second)),
			elements: e.cfg.IdleElements + e.cfg.PeakElements*computeUtil,
			cpuFull:  0.10, // runtime thread polling the DPU
			// The low-power domain (PMU) tracks platform-management
			// events, which follow the memory traffic — a weak echo of
			// the DDR signature, which is why the paper's LP-CPU sensor
			// fingerprints at 55.7% rather than either extreme.
			cpuLow: 0.10 + 0.25*memUtil,
			ddr:    memUtil,
		})
	}

	// Phase 3: scheduling gap before the next query.
	segs = append(segs, segment{
		dur: time.Millisecond, elements: e.cfg.IdleElements,
		cpuFull: 0.30, cpuLow: 0.15, ddr: 0.05,
	})

	e.segments = segs
	e.segIdx = 0
	e.segDone = 0
}

// CircuitName implements fabric.Circuit.
func (e *Engine) CircuitName() string { return "dpu-b4096" }

// Utilization implements fabric.Circuit: a B4096-class DPU core.
func (e *Engine) Utilization() fabric.Resources {
	return fabric.Resources{LUTs: 52000, FFs: 98000, DSPs: 710, BRAMKb: 9000}
}

// Step implements fabric.Circuit: walk the segment schedule through dt,
// time-averaging the PL activity and pushing the averaged CPU/DDR
// demands into the board.
func (e *Engine) Step(now, dt time.Duration) {
	if !e.running || e.model == nil {
		e.activity = e.cfg.IdleElements
		e.cfg.SetCPUFullUtil(0)
		e.cfg.SetCPULowUtil(0)
		e.cfg.SetDDRUtil(0)
		return
	}
	var elemW, cpuW, lowW, ddrW float64 // time-weighted accumulators
	remaining := dt
	for remaining > 0 {
		if e.segIdx >= len(e.segments) {
			if e.segments != nil {
				e.inferences++
			}
			e.scheduleQuery()
		}
		seg := &e.segments[e.segIdx]
		left := seg.dur - e.segDone
		use := left
		if use > remaining {
			use = remaining
		}
		w := use.Seconds()
		elemW += seg.elements * w
		cpuW += seg.cpuFull * w
		lowW += seg.cpuLow * w
		ddrW += seg.ddr * w
		e.segDone += use
		remaining -= use
		if e.segDone >= seg.dur {
			e.segIdx++
			e.segDone = 0
		}
	}
	sec := dt.Seconds()
	e.activity = elemW / sec
	e.cfg.SetCPUFullUtil(cpuW / sec)
	e.cfg.SetCPULowUtil(lowW / sec)
	e.cfg.SetDDRUtil(ddrW / sec)
}

// ActiveElements implements fabric.Circuit.
func (e *Engine) ActiveElements() float64 { return e.activity }

// QueryPeriod estimates one query's wall time for the loaded model
// (preprocessing of a nominal 0.19 MPix source + layer schedule + gap).
// Diagnostic only; the live schedule uses the actual query sizes.
func (e *Engine) QueryPeriod() (time.Duration, error) {
	if e.model == nil {
		return 0, errors.New("dpu: no model loaded")
	}
	cycleRate := e.cfg.MACsPerCycle * e.cfg.ClockHz
	total := time.Duration(0.19*e.cfg.PreprocSecsPerMPix*float64(time.Second)) + time.Millisecond
	for _, l := range e.model.Layers {
		eff := e.cfg.ConvEfficiency
		if l.Type == DWConv {
			eff = e.cfg.DWConvEfficiency
		}
		if l.Type == Softmax {
			total += 500 * time.Microsecond
			continue
		}
		tc := float64(l.MACs) / (cycleRate * eff)
		tm := float64(l.WeightBytes+l.ActivationBytes) / e.cfg.DDRBandwidth
		if tm > tc {
			tc = tm
		}
		total += time.Duration(tc * float64(time.Second))
	}
	return total, nil
}
