package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/board"
	"repro/internal/dpu"
	"repro/internal/imagenet"
	"repro/internal/rsa"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sysfs"
)

// RSAConfig parameterizes the Fig. 4 experiment: distinguish the
// Hamming weights of RSA-1024 keys from the FPGA current and power
// channels.
type RSAConfig struct {
	// Seed for the whole experiment. Zero means 1.
	Seed int64
	// Weights of the victim keys; empty means the paper's 17
	// (1, 64, 128, ..., 1024).
	Weights []int
	// Samples collected per key at SampleInterval. The paper collects
	// 100,000 at 1 kHz; the default here is 5,000 (5 s of victim time per
	// key), which already separates every class — EXPERIMENTS.md records
	// the budget reduction.
	Samples int
	// SampleInterval is the attacker's polling period; zero means the
	// paper's 1 kHz (1 ms).
	SampleInterval time.Duration
	// Warmup before sampling starts; zero means 200 ms.
	Warmup time.Duration
	// Parallelism is the worker count the per-key shards run on; zero
	// means GOMAXPROCS. Results are bit-identical for any worker count.
	Parallelism int
	// VerifyDatapath runs the real modular arithmetic in the victim
	// (slower; off by default — the activity schedule is identical).
	VerifyDatapath bool
	// Countermeasure deploys the Montgomery-ladder variant of the victim
	// circuit (defense ablation): its per-iteration activity is
	// bit-independent, so the Hamming-weight leak should vanish.
	Countermeasure bool
	// ConcurrentDPUModel, when non-empty, co-deploys a DPU running the
	// named zoo model on the same fabric — the interference scenario: a
	// busy neighbour widens the current distributions and merges
	// Hamming-weight classes.
	ConcurrentDPUModel string
}

// KeyObservation is the per-key measurement summary.
type KeyObservation struct {
	// Weight is the key's true Hamming weight.
	Weight int
	// Current and Power are five-number summaries of the sampled
	// channels, the boxes of Fig. 4.
	Current stats.FiveNum
	Power   stats.FiveNum
	// Exponentiations completed by the victim during sampling.
	Exponentiations uint64
	// SearchSpaceReductionBits is the brute-force work the recovered
	// weight removes: 1024 - log2 C(1024, weight).
	SearchSpaceReductionBits float64
}

// RSAResult is the Fig. 4 dataset.
type RSAResult struct {
	// Keys ordered by Hamming weight.
	Keys []KeyObservation
	// CurrentGroups and PowerGroups count the distinguishable classes
	// per channel (non-overlapping IQR boxes, scanned in weight order).
	// The paper resolves all 17 with current but only ~5 groups with
	// power.
	CurrentGroups int
	PowerGroups   int
	// CurrentPearson is the linear correlation between weight and median
	// current.
	CurrentPearson float64
	// CurrentSpearman is the rank correlation — the robust monotonicity
	// measure that survives quantization staircases and interference.
	CurrentSpearman float64
}

// RSAHammingWeight runs the Fig. 4 experiment.
func RSAHammingWeight(cfg RSAConfig) (*RSAResult, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Weights) == 0 {
		cfg.Weights = rsa.PaperHammingWeights()
	}
	if cfg.Samples == 0 {
		cfg.Samples = 5000
	}
	if cfg.Samples < 10 {
		return nil, errors.New("core: too few samples")
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = time.Millisecond
	}
	if cfg.SampleInterval <= 0 {
		return nil, errors.New("core: non-positive sample interval")
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 200 * time.Millisecond
	}

	// One shard per listed key, keyed by position so a repeated weight is
	// still its own shard; observeKey seeds each board from the weight.
	shards := make([]runner.Shard[KeyObservation], len(cfg.Weights))
	for i, w := range cfg.Weights {
		shards[i] = runner.Shard[KeyObservation]{
			Key: fmt.Sprintf("rsa/key/%d", i),
			Run: func(context.Context, runner.Info) (KeyObservation, error) {
				return observeKey(cfg, w)
			},
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name:    "rsa",
		Seed:    cfg.Seed,
		Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	obs := runner.Values(results)
	sort.Slice(obs, func(a, b int) bool { return obs[a].Weight < obs[b].Weight })

	res := &RSAResult{Keys: obs}
	res.CurrentGroups = countGroups(obs, func(k KeyObservation) stats.FiveNum { return k.Current })
	res.PowerGroups = countGroups(obs, func(k KeyObservation) stats.FiveNum { return k.Power })

	if len(obs) >= 2 {
		ws := make([]float64, len(obs))
		med := make([]float64, len(obs))
		for i, k := range obs {
			ws[i] = float64(k.Weight)
			med[i] = k.Current.Median
		}
		p, err := stats.Pearson(ws, med)
		switch {
		case errors.Is(err, stats.ErrDegenerate):
			// Identical medians across all weights (the ladder
			// countermeasure's goal): no correlation.
			res.CurrentPearson = 0
		case err != nil:
			return nil, err
		default:
			res.CurrentPearson = p
		}
		s, err := stats.Spearman(ws, med)
		switch {
		case errors.Is(err, stats.ErrDegenerate):
			res.CurrentSpearman = 0
		case err != nil:
			return nil, err
		default:
			res.CurrentSpearman = s
		}
	}
	return res, nil
}

// observeKey runs one victim key on a fresh board and samples the FPGA
// current and power channels.
func observeKey(cfg RSAConfig, weight int) (KeyObservation, error) {
	seed := captureSeed(cfg.Seed, fmt.Sprintf("rsa/%d", weight), weight)
	b, err := board.NewZCU102(board.Config{Seed: seed})
	if err != nil {
		return KeyObservation{}, err
	}
	keyRng := rand.New(rand.NewSource(seed))
	exponent, err := rsa.ExponentWithHammingWeight(1024, weight, keyRng)
	if err != nil {
		return KeyObservation{}, err
	}
	modulus, err := rsa.Modulus(1024, keyRng)
	if err != nil {
		return KeyObservation{}, err
	}
	circuit, err := rsa.NewCircuit(rsa.CircuitConfig{
		Exponent: exponent,
		Modulus:  modulus,
		Rand:     b.Engine().Stream("rsa-plaintexts"),
		Verify:   cfg.VerifyDatapath,
		Ladder:   cfg.Countermeasure,
	})
	if err != nil {
		return KeyObservation{}, err
	}
	if err := b.Fabric().Place(circuit, b.Fabric().SpreadEvenly()); err != nil {
		return KeyObservation{}, err
	}
	if cfg.ConcurrentDPUModel != "" {
		queries, err := imagenet.New(b.Engine().Stream("interference-queries"))
		if err != nil {
			return KeyObservation{}, err
		}
		engine, err := dpu.NewEngine(dpu.EngineConfig{
			Queries:        queries,
			SetCPUFullUtil: b.CPUFull().SetUtil,
			SetCPULowUtil:  b.CPULow().SetUtil,
			SetDDRUtil:     b.DDR().SetUtil,
		})
		if err != nil {
			return KeyObservation{}, err
		}
		if err := b.Fabric().Place(engine, b.Fabric().SpreadEvenly()); err != nil {
			return KeyObservation{}, err
		}
		m, err := dpu.ZooModel(cfg.ConcurrentDPUModel)
		if err != nil {
			return KeyObservation{}, err
		}
		if err := engine.LoadModel(m); err != nil {
			return KeyObservation{}, err
		}
	}
	// The control process that feeds the circuit runs on the APU.
	b.CPUFull().SetUtil(0.1)

	attacker, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return KeyObservation{}, err
	}
	recCur, err := attacker.NewRecorder(Channel{Label: board.SensorFPGA, Kind: Current}, cfg.SampleInterval)
	if err != nil {
		return KeyObservation{}, err
	}
	recPow, err := attacker.NewRecorder(Channel{Label: board.SensorFPGA, Kind: Power}, cfg.SampleInterval)
	if err != nil {
		return KeyObservation{}, err
	}
	recCur.Reserve(cfg.Samples + 1)
	recPow.Reserve(cfg.Samples + 1)
	b.Run(cfg.Warmup)
	recCur.Reset()
	recPow.Reset()
	b.Engine().MustRegister("recorder/current", recCur)
	b.Engine().MustRegister("recorder/power", recPow)

	b.Run(time.Duration(cfg.Samples) * cfg.SampleInterval)

	trCur, err := recCur.Trace()
	if err != nil {
		return KeyObservation{}, err
	}
	trPow, err := recPow.Trace()
	if err != nil {
		return KeyObservation{}, err
	}
	// The traces end here: summarise them in place, not through copies.
	sumCur, err := stats.SummaryInPlace(trCur.Samples)
	if err != nil {
		return KeyObservation{}, err
	}
	sumPow, err := stats.SummaryInPlace(trPow.Samples)
	if err != nil {
		return KeyObservation{}, err
	}
	reduction, err := rsa.SearchSpaceReduction(1024, weight)
	if err != nil {
		return KeyObservation{}, err
	}
	return KeyObservation{
		Weight:                   weight,
		Current:                  sumCur,
		Power:                    sumPow,
		Exponentiations:          circuit.Exponentiations(),
		SearchSpaceReductionBits: reduction,
	}, nil
}

// countGroups scans the keys in weight order and counts the clusters of
// overlapping IQR boxes — the number of classes an attacker can resolve
// on that channel.
func countGroups(obs []KeyObservation, box func(KeyObservation) stats.FiveNum) int {
	if len(obs) == 0 {
		return 0
	}
	groups := 1
	anchor := box(obs[0])
	for _, k := range obs[1:] {
		b := box(k)
		if b.Overlaps(anchor) {
			// Same group; extend the anchor so chained overlaps merge.
			if b.Q3 > anchor.Q3 {
				anchor.Q3 = b.Q3
			}
			if b.Q1 < anchor.Q1 {
				anchor.Q1 = b.Q1
			}
			continue
		}
		groups++
		anchor = b
	}
	return groups
}
