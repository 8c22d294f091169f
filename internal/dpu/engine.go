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

// The deployed DPU: a B4096-class core at the ZCU102 deployment's
// fabric clock, fed by DDR4, with its host-side preprocessing cost.
const (
	clockHz      = 300e6 // MAC-array clock
	macsPerCycle = 2048  // peak multiply-accumulates per cycle: 4096 INT8 ops
	cycleRate    = macsPerCycle * clockHz
	// convEfficiency is the achieved fraction of peak on standard
	// convolutions; dwConvEfficiency on depthwise ones, which map
	// poorly to the array.
	convEfficiency   = 0.7
	dwConvEfficiency = 0.25
	// ddrBandwidth is the effective memory bandwidth in bytes/s:
	// DDR4-2400 ×64 with realistic efficiency.
	ddrBandwidth = 10e9
	// peakElements is the PL toggling-element count at full MAC-array
	// utilization; idleElements the deployed-but-idle DPU's activity
	// (clock tree, instruction fetch).
	peakElements = 30000
	idleElements = 800
	// preprocSecsPerMPix is the CPU cost of resizing one megapixel of
	// source image.
	preprocSecsPerMPix = 0.020
	// softmaxTime is the classifier head's CPU time after the output
	// transfer; queryGap the scheduling gap before the next query.
	softmaxTime = 500 * time.Microsecond
	queryGap    = time.Millisecond
)

// EngineConfig connects a DPU instance to its query source and host
// board.
type EngineConfig struct {
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

	// segments is the loaded model's query schedule, built by
	// LoadModel: preprocessing, one segment per layer, the gap. Only
	// the preprocessing duration depends on the query; nextQuery sets
	// it. queried reports that a query has started since LoadModel.
	segments []segment
	segIdx   int
	segDone  time.Duration
	queried  bool

	inferences uint64

	// per-tick outputs
	activity float64
}

// NewEngine validates cfg and returns an idle engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
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
	e.scheduleModel()
	return nil
}

// Stop halts inference; the DPU stays deployed (idle activity only).
func (e *Engine) Stop() { e.running = false }

// Model returns the loaded model, or nil.
func (e *Engine) Model() *Model { return e.model }

// Inferences returns the number of completed queries.
func (e *Engine) Inferences() uint64 { return e.inferences }

// preprocess returns the CPU time to fetch and resize a source image
// of mpix megapixels.
func preprocess(mpix float64) time.Duration {
	return max(time.Duration(mpix*preprocSecsPerMPix*float64(time.Second)), 100*time.Microsecond)
}

// roofline places a layer that runs on the DPU (any but the softmax
// head, which runs on the CPU) on the engine's roofline: how long it
// runs and its MAC-array and DDR utilization. ok is false for a layer
// with no work, which takes no time.
func roofline(l *Layer) (dur time.Duration, compute, memory float64, ok bool) {
	eff := convEfficiency // pooling and eltwise have no MACs anyway
	if l.Type == DWConv {
		eff = dwConvEfficiency
	}
	tc := float64(l.MACs) / (cycleRate * eff)
	tm := float64(l.WeightBytes+l.ActivationBytes) / ddrBandwidth
	secs := max(tc, tm)
	if secs <= 0 {
		return 0, 0, 0, false
	}
	return time.Duration(secs * float64(time.Second)), tc / secs, tm / secs, true
}

// scheduleModel builds the loaded model's query schedule. The first
// Step starts the first query.
func (e *Engine) scheduleModel() {
	// Phase 1: CPU preprocessing — fetch and resize the source image;
	// nextQuery sets its duration.
	segs := append(e.segments[:0], segment{
		elements: idleElements, cpuFull: 0.85, cpuLow: 0.30, ddr: 0.15,
	})

	// Phase 2: the compute schedule, one per-layer roofline segment.
	for i := range e.model.Layers {
		l := &e.model.Layers[i]
		if l.Type == Softmax {
			// Classifier head runs on the CPU after output transfer.
			segs = append(segs, segment{
				dur: softmaxTime, elements: idleElements,
				cpuFull: 0.6, cpuLow: 0.2, ddr: 0.05,
			})
			continue
		}
		dur, compute, memory, ok := roofline(l)
		if !ok {
			continue
		}
		segs = append(segs, segment{
			dur:      dur,
			elements: idleElements + peakElements*compute,
			cpuFull:  0.10, // runtime thread polling the DPU
			// The low-power domain (PMU) tracks platform-management
			// events, which follow the memory traffic — a weak echo of
			// the DDR signature, which is why the paper's LP-CPU sensor
			// fingerprints at 55.7% rather than either extreme.
			cpuLow: 0.10 + 0.25*memory,
			ddr:    memory,
		})
	}

	// Phase 3: scheduling gap before the next query.
	segs = append(segs, segment{
		dur: queryGap, elements: idleElements,
		cpuFull: 0.30, cpuLow: 0.15, ddr: 0.05,
	})

	e.segments = segs
	e.segIdx = len(segs)
	e.segDone = 0
	e.queried = false
}

// nextQuery starts the next query on the loaded model's schedule,
// sizing its preprocessing to the query's source image.
func (e *Engine) nextQuery() {
	w, h := e.cfg.Queries.Next()
	e.segments[0].dur = preprocess(float64(w*h) / 1e6)
	e.segIdx = 0
	e.segDone = 0
	e.queried = true
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
		e.activity = idleElements
		e.cfg.SetCPUFullUtil(0)
		e.cfg.SetCPULowUtil(0)
		e.cfg.SetDDRUtil(0)
		return
	}
	var elemW, cpuW, lowW, ddrW float64 // time-weighted accumulators
	remaining := dt
	for remaining > 0 {
		if e.segIdx >= len(e.segments) {
			if e.queried {
				e.inferences++
			}
			e.nextQuery()
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
	total := preprocess(0.19) + queryGap
	for i := range e.model.Layers {
		l := &e.model.Layers[i]
		if l.Type == Softmax {
			total += softmaxTime
			continue
		}
		dur, _, _, _ := roofline(l) // zero for a layer with no work
		total += dur
	}
	return total, nil
}
