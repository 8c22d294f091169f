package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sysfs"
	"repro/internal/virus"
)

// Channel-quality gauges mirrored into the run ledger: the last
// transmission's bit error rate and payload rate.
var (
	gaugeCovertBER = obs.G("covert.ber")
	gaugeCovertBPS = obs.G("covert.bits_per_sec")
)

func observeCovert(r *CovertResult) {
	gaugeCovertBER.Set(r.BER())
	gaugeCovertBPS.Set(r.Throughput)
}

// The current channel also works as a covert channel: a sender with
// FPGA access (a malicious bitstream, or a tenant in a future
// multi-tenant deployment) modulates switching activity, and an
// unprivileged CPU-side receiver decodes it from hwmon current reads —
// crossing the PS/PL isolation boundary without any shared software
// interface. Capacity is bounded by the sensor's update interval
// (35 ms default), matching how the paper frames the sensor as the
// attacker's sampling bottleneck.

// CovertConfig parameterizes a covert-channel transmission.
type CovertConfig struct {
	// Seed for the board and payload. Zero means 1.
	Seed int64
	// PayloadBits to transmit; zero means 64.
	PayloadBits int
	// SymbolUpdates is the symbol duration in sensor update intervals;
	// zero means 2 (robust against boundary straddling).
	SymbolUpdates int
	// Groups is the on-off keying amplitude in power-virus groups; zero
	// means 40 (a ~1.6 A swing, far above the noise floor).
	Groups int
	// UpdateInterval overrides the sensors' hwmon update interval. The
	// default 35 ms caps the unprivileged channel at ~28.6 bps; a root
	// accomplice retuning to 2 ms raises the ceiling to 500 bps.
	UpdateInterval time.Duration
	// Parallelism is the worker count the chunk shards run on; zero means
	// GOMAXPROCS. The payload is split into 32-bit chunks, each sent
	// over its own board (a deterministic per-chunk seed), so the result
	// is bit-identical for any worker count.
	Parallelism int
	// Faults optionally injects a fault profile into the transmission
	// board(s); the receiver then records unrecoverable samples as NaN
	// gaps and the decoder works from the finite samples per symbol.
	Faults *faults.Profile
}

// covertChunkBits is the payload chunk each board transmits; the last
// chunk carries the remainder.
const covertChunkBits = 32

// CovertResult summarizes a transmission.
type CovertResult struct {
	// BitsSent is the payload length.
	BitsSent int
	// BitErrors after decoding.
	BitErrors int
	// Throughput is the payload rate in bits/s at the used symbol
	// period (excluding the preamble).
	Throughput float64
	// SymbolPeriod actually used.
	SymbolPeriod time.Duration
}

// BER returns the bit error rate.
func (r *CovertResult) BER() float64 {
	if r.BitsSent == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.BitsSent)
}

// preamble is the alternating sync/calibration header.
var preamble = []int{1, 0, 1, 0, 1, 0, 1, 0}

// covertSender drives the power-virus array with on-off keying.
type covertSender struct {
	array  *virus.Array
	bits   []int
	period time.Duration
	groups int
	start  time.Duration
	active bool
}

// Step implements sim.Steppable.
func (s *covertSender) Step(now, dt time.Duration) {
	if !s.active {
		return
	}
	idx := int((now - s.start) / s.period)
	level := 0
	if idx < len(s.bits) {
		if s.bits[idx] == 1 {
			level = s.groups
		}
	}
	// Ignoring the error is safe: level is 0 or s.groups, both valid.
	_ = s.array.SetActiveGroups(level)
}

// CovertTransmit sends the payload over the covert channel, one
// 32-bit chunk per board, and decodes every chunk with the unprivileged
// receiver.
func CovertTransmit(cfg CovertConfig) (*CovertResult, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PayloadBits == 0 {
		cfg.PayloadBits = 64
	}
	if cfg.PayloadBits < 1 {
		return nil, errors.New("core: non-positive payload")
	}
	if cfg.SymbolUpdates == 0 {
		cfg.SymbolUpdates = 2
	}
	if cfg.SymbolUpdates < 1 {
		return nil, errors.New("core: non-positive symbol duration")
	}
	if cfg.Groups == 0 {
		cfg.Groups = 40
	}
	if cfg.Groups < 1 || cfg.Groups > virus.DefaultGroups {
		return nil, fmt.Errorf("core: groups %d outside [1,%d]", cfg.Groups, virus.DefaultGroups)
	}

	// Fixed-size payload chunks, one board per chunk, aggregated error
	// counts. The chunk layout is a function of the config alone, so the
	// result does not depend on worker count.
	var chunks []int
	for remaining := cfg.PayloadBits; remaining > 0; remaining -= covertChunkBits {
		chunks = append(chunks, min(remaining, covertChunkBits))
	}
	shards := make([]runner.Shard[*CovertResult], len(chunks))
	for i, bits := range chunks {
		shards[i] = runner.Shard[*CovertResult]{
			Key: fmt.Sprintf("covert/chunk/%d", i),
			Run: func(ctx context.Context, info runner.Info) (*CovertResult, error) {
				return covertOnce(ctx, cfg, info.Seed, bits)
			},
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name:    "covert",
		Seed:    cfg.Seed,
		Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	agg := &CovertResult{}
	for _, r := range runner.Values(results) {
		agg.BitsSent += r.BitsSent
		agg.BitErrors += r.BitErrors
		agg.SymbolPeriod = r.SymbolPeriod
		agg.Throughput = r.Throughput
	}
	observeCovert(agg)
	return agg, nil
}

// covertOnce runs one end-to-end transmission of payloadBits bits on a
// board seeded with seed. ctx is polled between sampling intervals, so
// cancellation lands mid-transmission.
func covertOnce(ctx context.Context, cfg CovertConfig, seed int64, payloadBits int) (*CovertResult, error) {
	b, err := board.NewZCU102(board.Config{
		Seed:           seed,
		UpdateInterval: cfg.UpdateInterval,
		Faults:         cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	array, err := virus.New(virus.Config{})
	if err != nil {
		return nil, err
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		return nil, err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return nil, err
	}
	interval := dev.UpdateInterval()
	period := time.Duration(cfg.SymbolUpdates) * interval

	// Build the frame: preamble + payload.
	payloadRng := rand.New(rand.NewSource(captureSeed(seed, "covert-payload", 0)))
	payload := make([]int, payloadBits)
	for i := range payload {
		payload[i] = payloadRng.Intn(2)
	}
	frame := append(append([]int{}, preamble...), payload...)

	sender := &covertSender{array: array, bits: frame, period: period, groups: cfg.Groups}
	b.Engine().MustRegister("covert-sender", sender)

	attacker, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return nil, err
	}
	rx := Channel{Label: board.SensorFPGA, Kind: Current}
	rec, err := attacker.NewRecorder(rx, interval)
	if err != nil {
		return nil, err
	}
	// One sample per sensor update across the frame, plus the top-up and
	// padding margin below, so the capture loop never regrows the trace.
	expect := len(frame) * cfg.SymbolUpdates
	rec.Reserve(expect + expect/4 + 4)
	if inj := b.FaultInjector(); inj != nil {
		rec.Harden(inj.SamplerFaults("recorder/covert"), b.Engine().Stream("backoff/covert"), attacker.resolver(rx))
	}

	// Settle, then start the transmission aligned with the recorder.
	b.Run(200 * time.Millisecond)
	rec.Reset()
	b.Engine().MustRegister("covert-receiver", rec)
	sender.start = b.Engine().Now()
	sender.active = true
	target := time.Duration(len(frame))*period + 2*interval
	for advanced := time.Duration(0); advanced < target; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := interval
		if advanced+chunk > target {
			chunk = target - advanced
		}
		b.Run(chunk)
		advanced += chunk
	}
	// Injected jitter can leave the trace short of the frame; top up
	// briefly, then pad with gaps so the decoder sees a full frame.
	need := len(frame) * cfg.SymbolUpdates
	for extra, maxExtra := 0, need/4+2; extra < maxExtra; extra++ {
		if tr, err := rec.Trace(); err != nil || len(tr.Samples) >= need {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.Run(interval)
	}

	tr, err := rec.Trace()
	if err != nil {
		return nil, err
	}
	tr.PadGaps(need)
	decoded, err := covertDecode(tr.Samples, cfg.SymbolUpdates, len(frame))
	if err != nil {
		return nil, err
	}
	res := &CovertResult{
		BitsSent:     payloadBits,
		SymbolPeriod: period,
		Throughput:   1 / period.Seconds(),
	}
	for i, want := range payload {
		if decoded[len(preamble)+i] != want {
			res.BitErrors++
		}
	}
	return res, nil
}

// covertDecode recovers the frame bits from the sampled current: find
// the sampling offset that best matches the alternating preamble, derive
// the decision threshold from the preamble's high/low means, then
// threshold each symbol's mean.
//
// NaN gaps (lost receiver samples) are excluded from every mean; a
// symbol whose samples were all lost decodes as 0. Only a preamble
// whose high or low symbols are entirely lost is unrecoverable.
func covertDecode(samples []float64, samplesPerSymbol, frameBits int) ([]int, error) {
	if samplesPerSymbol < 1 {
		return nil, errors.New("core: bad symbol width")
	}
	need := frameBits * samplesPerSymbol
	if len(samples) < need {
		return nil, fmt.Errorf("core: trace too short: %d samples, need %d", len(samples), need)
	}
	// symbolMeans averages each symbol's finite samples; an all-gap
	// symbol yields NaN.
	symbolMeans := func(offset int) []float64 {
		out := make([]float64, frameBits)
		for s := 0; s < frameBits; s++ {
			var sum float64
			var n int
			for k := 0; k < samplesPerSymbol; k++ {
				if v := samples[offset+s*samplesPerSymbol+k]; !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			if n == 0 {
				out[s] = math.NaN()
			} else {
				out[s] = sum / float64(n)
			}
		}
		return out
	}
	// preambleLevels averages the preamble's high and low symbol means,
	// skipping lost symbols. ok is false when either level is entirely
	// lost (no calibration possible).
	preambleLevels := func(means []float64) (hi, lo float64, ok bool) {
		var hiN, loN int
		for i, bit := range preamble {
			if math.IsNaN(means[i]) {
				continue
			}
			if bit == 1 {
				hi += means[i]
				hiN++
			} else {
				lo += means[i]
				loN++
			}
		}
		if hiN == 0 || loN == 0 {
			return 0, 0, false
		}
		return hi / float64(hiN), lo / float64(loN), true
	}
	maxOffset := len(samples) - need
	if maxOffset > samplesPerSymbol {
		maxOffset = samplesPerSymbol
	}
	bestOffset, bestScore, found := 0, math.Inf(-1), false
	for off := 0; off <= maxOffset; off++ {
		hi, lo, ok := preambleLevels(symbolMeans(off))
		if !ok {
			continue
		}
		// Preamble contrast: mean(high symbols) - mean(low symbols).
		if score := hi - lo; score > bestScore {
			bestScore = score
			bestOffset = off
			found = true
		}
	}
	if !found {
		return nil, errors.New("core: preamble lost: no offset with both levels observable")
	}
	means := symbolMeans(bestOffset)
	hi, lo, _ := preambleLevels(means)
	threshold := (hi + lo) / 2
	bits := make([]int, frameBits)
	for i, m := range means {
		// NaN > threshold is false: an all-gap symbol decodes as 0.
		if m > threshold {
			bits[i] = 1
		}
	}
	return bits, nil
}
