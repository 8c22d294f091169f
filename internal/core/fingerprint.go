package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/board"
	"repro/internal/dpu"
	"repro/internal/faults"
	"repro/internal/imagenet"
	"repro/internal/ml/crossval"
	"repro/internal/ml/features"
	"repro/internal/ml/rforest"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

// SensitiveChannels returns the six channels Table III evaluates: the
// four current sensors of Table II plus the FPGA sensor's voltage and
// power channels.
func SensitiveChannels() []Channel {
	return []Channel{
		{Label: board.SensorCPUFull, Kind: Current},
		{Label: board.SensorCPULow, Kind: Current},
		{Label: board.SensorDDR, Kind: Current},
		{Label: board.SensorFPGA, Kind: Current},
		{Label: board.SensorFPGA, Kind: Voltage},
		{Label: board.SensorFPGA, Kind: Power},
	}
}

// FingerprintConfig parameterizes the DPU fingerprinting experiment.
type FingerprintConfig struct {
	// Seed for the whole experiment. Zero means 1.
	Seed int64
	// Models to fingerprint by zoo name; empty means all 39.
	Models []string
	// TracesPerModel collected in the offline phase; zero means 12 (the
	// paper's 10-fold CV needs at least 10; EXPERIMENTS.md documents the
	// budget reduction from the paper's full capture).
	TracesPerModel int
	// TraceDuration of each capture; zero means the paper's 5 s.
	TraceDuration time.Duration
	// Warmup before each capture; zero means 200 ms.
	Warmup time.Duration
	// Channels to evaluate; empty means SensitiveChannels().
	Channels []Channel
	// Durations evaluated as prefixes of each capture; empty means
	// 1 s..5 s, Table III's sweep.
	Durations []time.Duration
	// Folds of cross-validation; zero means the paper's 10.
	Folds int
	// Trees and MaxDepth of the forest; zero means the paper's 100 / 32.
	Trees    int
	MaxDepth int
	// Bins is the temporal feature resolution; zero means
	// features.DefaultBins.
	Bins int
	// SpectralBins appends the magnitudes of that many low-frequency DFT
	// coefficients to each feature vector (0 disables). Spectral
	// features are phase-invariant: they encode the victim's inference
	// period regardless of where in the loop the capture started.
	SpectralBins int
	// Parallelism bounds concurrent trace captures and evaluations; zero
	// means GOMAXPROCS.
	Parallelism int
	// UpdateInterval overrides the sensors' hwmon update interval (the
	// ablation knob); zero keeps the 35 ms board default.
	UpdateInterval time.Duration
	// Faults optionally injects a fault profile into every capture
	// board; recorders then run with the resilient retry policy and
	// record unrecoverable samples as NaN gaps.
	Faults *faults.Profile
}

func (cfg *FingerprintConfig) fillDefaults() {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Models) == 0 {
		for _, m := range dpu.Zoo() {
			cfg.Models = append(cfg.Models, m.Name)
		}
	}
	if cfg.TracesPerModel == 0 {
		cfg.TracesPerModel = 12
	}
	if cfg.TraceDuration == 0 {
		cfg.TraceDuration = 5 * time.Second
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 200 * time.Millisecond
	}
	if len(cfg.Channels) == 0 {
		cfg.Channels = SensitiveChannels()
	}
	if len(cfg.Durations) == 0 {
		cfg.Durations = []time.Duration{
			1 * time.Second, 2 * time.Second, 3 * time.Second,
			4 * time.Second, 5 * time.Second,
		}
	}
	if cfg.Folds == 0 {
		cfg.Folds = 10
	}
	if cfg.Trees == 0 {
		cfg.Trees = 100
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 32
	}
	if cfg.Bins == 0 {
		cfg.Bins = features.DefaultBins
	}
}

// Validate reports whether cfg, with its zero fields defaulted,
// describes a runnable experiment: enough traces per model for the
// folds, and no classified duration past the capture length.
// Fingerprint and CollectDPUTraces run the same check.
func (cfg FingerprintConfig) Validate() error {
	cfg.fillDefaults()
	return cfg.validate()
}

func (cfg *FingerprintConfig) validate() error {
	if cfg.TracesPerModel < cfg.Folds {
		return fmt.Errorf("core: %d traces/model cannot support %d-fold CV",
			cfg.TracesPerModel, cfg.Folds)
	}
	for _, d := range cfg.Durations {
		if d > cfg.TraceDuration {
			return fmt.Errorf("core: duration %v exceeds capture length %v", d, cfg.TraceDuration)
		}
	}
	return nil
}

// Capture is one victim run observed on every channel simultaneously.
type Capture struct {
	// Model is the zoo name of the victim accelerator.
	Model string
	// Rep is the repetition index.
	Rep int
	// Traces per channel.
	Traces map[Channel]*trace.Trace
}

// CollectDPUTraces runs the offline collection phase: for every model
// and repetition, deploy the DPU on a fresh board, run inference for the
// capture duration, and record all channels through unprivileged hwmon
// reads. Captures are returned grouped by model, in cfg.Models order.
func CollectDPUTraces(cfg FingerprintConfig) ([]*Capture, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards := make([]runner.Shard[*Capture], 0, len(cfg.Models)*cfg.TracesPerModel)
	for _, m := range cfg.Models {
		if _, err := dpu.ZooModel(m); err != nil {
			return nil, err
		}
		for r := 0; r < cfg.TracesPerModel; r++ {
			m, r := m, r
			shards = append(shards, runner.Shard[*Capture]{
				// The key matches captureSeed's "model/rep" derivation, so
				// the shard seed the runner hands back is exactly the seed
				// the serial collection loop has always used.
				Key: fmt.Sprintf("%s/%d", m, r),
				Run: func(ctx context.Context, info runner.Info) (*Capture, error) {
					return captureOne(ctx, cfg, m, r, info.Seed)
				},
			})
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name:    "collect",
		Seed:    cfg.Seed,
		Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	return runner.Values(results), nil
}

// captureSeed derives a deterministic per-capture seed from the
// experiment seed, the model name, and the repetition. It is the
// runner's shard-seed derivation over the "model/rep" key, so seeds are
// identical whether a capture runs serially or as a campaign shard.
func captureSeed(root int64, model string, rep int) int64 {
	return runner.ShardSeed(root, fmt.Sprintf("%s/%d", model, rep))
}

// captureOne runs one victim inference session and records every
// channel. seed is the capture's shard seed (captureSeed of model/rep);
// ctx is polled between the warmup and capture stretches.
func captureOne(ctx context.Context, cfg FingerprintConfig, modelName string, rep int, seed int64) (*Capture, error) {
	b, recorders, interval, err := captureRig(cfg, modelName, seed)
	if err != nil {
		return nil, err
	}
	b.Run(cfg.Warmup)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Register in cfg.Channels order: step order within a tick is then
	// independent of map iteration (read-only recorders make this a
	// cosmetic guarantee, but it keeps the engine wiring reproducible).
	for _, ch := range cfg.Channels {
		rec := recorders[ch]
		rec.Reset()
		if err := b.Engine().Register(fmt.Sprintf("recorder/%s", ch), rec); err != nil {
			return nil, err
		}
	}
	span := obs.StartSpan("core.capture", b.Engine())
	// One extra update beyond TraceDuration so every prefix fits. The
	// run is chunked at the sampling interval with the context polled
	// between chunks, so cancellation lands mid-trace, not only at
	// shard boundaries.
	target := cfg.TraceDuration + interval
	for advanced := time.Duration(0); advanced < target; {
		if err := ctx.Err(); err != nil {
			span.End()
			return nil, err
		}
		chunk := interval
		if advanced+chunk > target {
			chunk = target - advanced
		}
		b.Run(chunk)
		advanced += chunk
	}
	// Injected jitter and dropouts can leave traces short of the sample
	// budget the duration sweep needs. Top up with a bounded number of
	// extra updates, then pad what is still missing with NaN gaps.
	needed := int(cfg.TraceDuration / interval)
	for extra, maxExtra := 0, needed/4+2; extra < maxExtra; extra++ {
		if err := ctx.Err(); err != nil {
			span.End()
			return nil, err
		}
		short := false
		for _, rec := range recorders {
			if tr, err := rec.Trace(); err == nil && len(tr.Samples) < needed {
				short = true
				break
			}
		}
		if !short {
			break
		}
		b.Run(interval)
	}
	span.End()

	cap := &Capture{Model: modelName, Rep: rep, Traces: make(map[Channel]*trace.Trace)}
	rateHist := obs.H("attacker.sample_rate_hz")
	for ch, rec := range recorders {
		tr, err := rec.Trace()
		if err != nil {
			return nil, fmt.Errorf("core: channel %v: %w", ch, err)
		}
		tr.PadGaps(needed)
		cap.Traces[ch] = tr
		// The achieved sampling rate in simulated time: the quantity the
		// channel capacity of every experiment depends on. One value per
		// channel per capture.
		if d := tr.Duration(); d > 0 {
			rateHist.Observe(float64(len(tr.Samples)) / d.Seconds())
		}
	}
	obs.C("core.captures").Inc()
	return cap, nil
}

// captureRig wires one capture's board: the victim DPU running
// modelName and, on the attacker side, one reserved recorder per
// channel at the hwmon update interval. It is everything captureOne
// does before simulated time first advances.
func captureRig(cfg FingerprintConfig, modelName string, seed int64) (*board.ZCU102, map[Channel]*trace.Recorder, time.Duration, error) {
	b, err := board.NewZCU102(board.Config{
		Seed:           seed,
		UpdateInterval: cfg.UpdateInterval,
		Faults:         cfg.Faults,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	// Victim: deploy the DPU and start the query loop.
	queries, err := imagenet.New(b.Engine().Stream("queries"))
	if err != nil {
		return nil, nil, 0, err
	}
	engine, err := dpu.NewEngine(dpu.EngineConfig{
		Queries:        queries,
		SetCPUFullUtil: b.CPUFull().SetUtil,
		SetCPULowUtil:  b.CPULow().SetUtil,
		SetDDRUtil:     b.DDR().SetUtil,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := b.Fabric().Place(engine, b.Fabric().SpreadEvenly()); err != nil {
		return nil, nil, 0, err
	}
	m, err := dpu.ZooModel(modelName)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := engine.LoadModel(m); err != nil {
		return nil, nil, 0, err
	}

	// Attacker: one recorder per channel at the hwmon update interval.
	attacker, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return nil, nil, 0, err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return nil, nil, 0, err
	}
	interval := dev.UpdateInterval()
	recorders := make(map[Channel]*trace.Recorder, len(cfg.Channels))
	for _, ch := range cfg.Channels {
		rec, err := attacker.NewRecorder(ch, interval)
		if err != nil {
			return nil, nil, 0, err
		}
		// Size the trace for the nominal capture plus captureOne's
		// top-up budget, so the sampling loop never regrows the backing
		// array.
		expect := int((cfg.TraceDuration+interval)/interval) + 1
		rec.Reserve(expect + expect/4 + 2)
		if inj := b.FaultInjector(); inj != nil {
			rec.Harden(inj.SamplerFaults(fmt.Sprintf("recorder/%s/%s", ch.Label, ch.Kind)),
				b.Engine().Stream(fmt.Sprintf("backoff/%s/%s", ch.Label, ch.Kind)), attacker.resolver(ch))
		}
		recorders[ch] = rec
	}
	return b, recorders, interval, nil
}

// AccuracyCell is one Table III cell.
type AccuracyCell struct {
	Channel  Channel
	Duration time.Duration
	Top1     float64
	Top5     float64
}

// FingerprintResult is the Table III grid plus the captures that
// produced it (reusable for Fig. 3 rendering).
type FingerprintResult struct {
	Cells    []AccuracyCell
	Captures []*Capture
	// Classes is the number of distinct models (random-guess baseline =
	// 1/Classes, quoted as 0.0256 in the paper for 39 classes).
	Classes int
}

// Cell returns the grid cell for a channel and duration.
func (r *FingerprintResult) Cell(ch Channel, d time.Duration) (AccuracyCell, error) {
	for _, c := range r.Cells {
		if c.Channel == ch && c.Duration == d {
			return c, nil
		}
	}
	return AccuracyCell{}, fmt.Errorf("core: no cell for %v at %v", ch, d)
}

// Fingerprint runs the full Table III experiment: offline collection,
// then per-(channel,duration) cross-validated random-forest evaluation.
func Fingerprint(cfg FingerprintConfig) (*FingerprintResult, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	captures, err := CollectDPUTraces(cfg)
	if err != nil {
		return nil, err
	}
	return EvaluateCaptures(cfg, captures)
}

// EvaluateCaptures runs the classification phase over already-collected
// captures (separated so ablations can reuse one collection).
func EvaluateCaptures(cfg FingerprintConfig, captures []*Capture) (*FingerprintResult, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(captures) == 0 {
		return nil, errors.New("core: no captures")
	}
	type cell struct {
		ch Channel
		d  time.Duration
	}
	var cells []cell
	for _, ch := range cfg.Channels {
		for _, d := range cfg.Durations {
			cells = append(cells, cell{ch, d})
		}
	}
	shards := make([]runner.Shard[AccuracyCell], len(cells))
	for i, c := range cells {
		c := c
		shards[i] = runner.Shard[AccuracyCell]{
			// evaluateCell re-derives this same key's seed internally via
			// captureSeed, so cell outcomes are independent of scheduling.
			Key: fmt.Sprintf("eval/%v/%v", c.ch, c.d),
			Run: func(ctx context.Context, info runner.Info) (AccuracyCell, error) {
				return evaluateCell(cfg, captures, c.ch, c.d)
			},
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name:    "evaluate",
		Seed:    cfg.Seed,
		Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	out := runner.Values(results)
	classes := map[string]bool{}
	for _, c := range captures {
		classes[c.Model] = true
	}
	// Grid-mean accuracies, mirrored into the run ledger as the
	// experiment's headline quality figures.
	if len(out) > 0 {
		var top1, top5 float64
		for _, c := range out {
			top1 += c.Top1
			top5 += c.Top5
		}
		obs.G("fingerprint.top1_mean").Set(top1 / float64(len(out)))
		obs.G("fingerprint.top5_mean").Set(top5 / float64(len(out)))
	}
	return &FingerprintResult{Cells: out, Captures: captures, Classes: len(classes)}, nil
}

// evaluateCell builds the dataset for one channel/duration and runs the
// cross-validated forest.
func evaluateCell(cfg FingerprintConfig, captures []*Capture, ch Channel, d time.Duration) (AccuracyCell, error) {
	var ds features.Dataset
	for _, cap := range captures {
		tr, ok := cap.Traces[ch]
		if !ok {
			return AccuracyCell{}, fmt.Errorf("core: capture %s/%d lacks channel %v", cap.Model, cap.Rep, ch)
		}
		prefix, err := tr.Prefix(d)
		if err != nil {
			return AccuracyCell{}, err
		}
		vec, err := features.FromTraceWithSpectrum(prefix, cfg.Bins, cfg.SpectralBins)
		if err != nil {
			return AccuracyCell{}, err
		}
		ds.Add(vec, cap.Model)
	}
	seed := captureSeed(cfg.Seed, fmt.Sprintf("eval/%v/%v", ch, d), 0)
	rng := rand.New(rand.NewSource(seed))
	// The cross-validated evaluation is folds x (train + predict); its
	// span is the classifier cost of one Table III cell.
	span := obs.StartSpan("core.crossval", nil)
	res, err := crossval.Evaluate(&ds, rforest.Config{
		Trees:    cfg.Trees,
		MaxDepth: cfg.MaxDepth,
		Rand:     rng,
	}, cfg.Folds, rng)
	span.End()
	if err != nil {
		return AccuracyCell{}, err
	}
	return AccuracyCell{Channel: ch, Duration: d, Top1: res.Top1, Top5: res.Top5}, nil
}
