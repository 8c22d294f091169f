// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, printing the reproduced rows/series on the first
// iteration and asserting the paper's qualitative shape (who wins, by
// roughly what factor). Absolute wall-clock numbers measure the
// simulation, not the authors' testbed; EXPERIMENTS.md records the
// paper-vs-measured comparison produced by these benchmarks and by
// cmd/benchtab.
//
// Heavy benchmarks use documented budget reductions relative to the
// paper's capture sizes (see EXPERIMENTS.md); cmd/benchtab exposes flags
// to raise them to paper scale.
package core_test

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/dpu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sysfs"
)

// once-per-process guards so repeated benchmark iterations print once.
var (
	printTableI   sync.Once
	printTableII  sync.Once
	printFig2     sync.Once
	printFig3     sync.Once
	printTableIII sync.Once
	printFig4     sync.Once
	printObs      sync.Once
)

// reportObs prints the obs-layer headline numbers from the process
// snapshot, so benchmark logs record the attacker's achieved
// sampling rate and engine throughput alongside the accuracy tables.
func reportObs() {
	s := obs.Default.Snapshot()
	if h, ok := s.Histogram("attacker.sample_rate_hz"); ok {
		fmt.Printf("obs: attacker sample rate p50=%.1f Hz p99=%.1f Hz (%d channel-captures); %d captures; sim/wall ratio %.0fx\n",
			h.P50, h.P99, h.Count, s.Counter("core.captures"), s.Gauge("sim.ratio"))
	}
}

// BenchmarkTableI_BoardCatalog regenerates Table I: the surveyed
// ARM-FPGA boards and their integrated INA226 sensor counts.
func BenchmarkTableI_BoardCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cat := board.Catalog()
		if len(cat) != 8 {
			b.Fatalf("catalog size = %d, want 8", len(cat))
		}
		for _, s := range cat {
			if s.INASensors == 0 {
				b.Fatalf("%s has no INA226 sensors", s.Name)
			}
		}
		printTableI.Do(func() { _ = report.RenderTableI(os.Stdout, cat) })
	}
}

// BenchmarkTableII_SensitiveSensors regenerates Table II: the four
// sensitive ZCU102 sensors, verified by unprivileged discovery on a
// live simulated board.
func BenchmarkTableII_SensitiveSensors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		brd, err := board.NewZCU102(board.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		brd.Run(50 * time.Millisecond)
		atk, err := core.NewAttacker(brd.Sysfs(), sysfs.Nobody)
		if err != nil {
			b.Fatal(err)
		}
		sensors, err := atk.Discover()
		if err != nil {
			b.Fatal(err)
		}
		if len(sensors) != 18 {
			b.Fatalf("discovered %d sensors, want 18", len(sensors))
		}
		printTableII.Do(func() {
			_ = report.RenderTableII(os.Stdout, board.SensitiveSensors())
		})
	}
}

// BenchmarkFig2_Characterization regenerates Fig. 2: current, voltage,
// power, and RO counts versus the number of active power-virus
// instances (161 levels), with Pearson coefficients and the 261×
// variation comparison. Budget: 20 hwmon updates per level instead of
// the paper's 10,000 samples.
func BenchmarkFig2_Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Characterize(core.CharacterizeConfig{SamplesPerLevel: 20})
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: current/power r=0.999, |voltage r|=0.958,
		// RO r=-0.996, ratio 261×, ~40 current LSB per level.
		if res.Current.Pearson < 0.99 || res.Power.Pearson < 0.99 {
			b.Fatalf("current/power Pearson = %v/%v", res.Current.Pearson, res.Power.Pearson)
		}
		if res.RO.Pearson > -0.98 {
			b.Fatalf("RO Pearson = %v", res.RO.Pearson)
		}
		if math.Abs(res.Voltage.Pearson) < 0.8 {
			b.Fatalf("voltage |Pearson| = %v", math.Abs(res.Voltage.Pearson))
		}
		if res.VariationRatio < 150 || res.VariationRatio > 450 {
			b.Fatalf("variation ratio = %v, want ~261", res.VariationRatio)
		}
		if res.Current.LSBPerLevel < 30 || res.Current.LSBPerLevel > 50 {
			b.Fatalf("current LSB/level = %v, want ~40", res.Current.LSBPerLevel)
		}
		printFig2.Do(func() { _ = report.RenderFig2(os.Stdout, res) })
	}
}

// BenchmarkFig3_DNNTraces regenerates Fig. 3: current traces from the
// four sensitive sensors while six representative DNNs run on the DPU.
func BenchmarkFig3_DNNTraces(b *testing.B) {
	channels := []core.Channel{
		{Label: board.SensorCPUFull, Kind: core.Current},
		{Label: board.SensorCPULow, Kind: core.Current},
		{Label: board.SensorFPGA, Kind: core.Current},
		{Label: board.SensorDDR, Kind: core.Current},
	}
	for i := 0; i < b.N; i++ {
		caps, err := core.CollectDPUTraces(core.FingerprintConfig{
			Models:         dpu.Fig3Models(),
			TracesPerModel: 1,
			TraceDuration:  5 * time.Second,
			Durations:      []time.Duration{5 * time.Second},
			Folds:          1,
			Channels:       channels,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(caps) != 6 {
			b.Fatalf("captures = %d, want 6", len(caps))
		}
		// Each model must produce a distinct FPGA-current mean pattern.
		means := map[string]float64{}
		for _, c := range caps {
			tr := c.Traces[core.Channel{Label: board.SensorFPGA, Kind: core.Current}]
			sum := 0.0
			for _, s := range tr.Samples {
				sum += s
			}
			means[c.Model] = sum / float64(len(tr.Samples))
		}
		for m1, v1 := range means {
			for m2, v2 := range means {
				if m1 < m2 && math.Abs(v1-v2) < 1e-6 {
					b.Fatalf("models %s and %s have identical mean current", m1, m2)
				}
			}
		}
		printFig3.Do(func() { _ = report.RenderFig3(os.Stdout, caps, channels) })
	}
}

// BenchmarkTableIII_Fingerprinting regenerates Table III: top-1/top-5
// fingerprinting accuracy over 39 models for six channels and five
// trace durations, with the paper's RForest(100 trees, depth 32) and
// 10-fold cross-validation. Budget: 10 traces per model instead of the
// paper's full capture campaign.
func BenchmarkTableIII_Fingerprinting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Fingerprint(core.FingerprintConfig{TracesPerModel: 10, Folds: 10})
		if err != nil {
			b.Fatal(err)
		}
		if res.Classes != 39 {
			b.Fatalf("classes = %d, want 39", res.Classes)
		}
		full := 5 * time.Second
		cur, err := res.Cell(core.Channel{Label: board.SensorFPGA, Kind: core.Current}, full)
		if err != nil {
			b.Fatal(err)
		}
		vol, err := res.Cell(core.Channel{Label: board.SensorFPGA, Kind: core.Voltage}, full)
		if err != nil {
			b.Fatal(err)
		}
		pow, err := res.Cell(core.Channel{Label: board.SensorFPGA, Kind: core.Power}, full)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: FPGA current near-perfect (0.997), power close
		// behind (0.989), voltage near chance (0.116; chance=0.0256).
		if cur.Top1 < 0.9 {
			b.Fatalf("FPGA current top1 = %v, want > 0.9 (paper 0.997)", cur.Top1)
		}
		if pow.Top1 < 0.85 {
			b.Fatalf("FPGA power top1 = %v, want > 0.85 (paper 0.989)", pow.Top1)
		}
		if vol.Top1 > 0.35 {
			b.Fatalf("FPGA voltage top1 = %v, want near chance (paper 0.116)", vol.Top1)
		}
		printTableIII.Do(func() {
			_ = report.RenderTableIII(os.Stdout, res, core.SensitiveChannels(),
				[]time.Duration{time.Second, 2 * time.Second, 3 * time.Second,
					4 * time.Second, 5 * time.Second})
		})
		printObs.Do(reportObs)
	}
}

// BenchmarkFig4_RSAHammingWeight regenerates Fig. 4: the distribution of
// FPGA current and power during RSA-1024 runs with 17 keys of Hamming
// weight 1..1024. Budget: 5,000 samples per key at 1 kHz instead of the
// paper's 100,000.
func BenchmarkFig4_RSAHammingWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RSAHammingWeight(core.RSAConfig{Samples: 5000})
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: current separates all 17 weights; power collapses
		// them into about 5 groups.
		if res.CurrentGroups != 17 {
			b.Fatalf("current groups = %d, want 17", res.CurrentGroups)
		}
		if res.PowerGroups < 3 || res.PowerGroups > 8 {
			b.Fatalf("power groups = %d, want ~5", res.PowerGroups)
		}
		if res.CurrentPearson < 0.999 {
			b.Fatalf("current-vs-weight Pearson = %v", res.CurrentPearson)
		}
		printFig4.Do(func() { _ = report.RenderFig4(os.Stdout, res) })
	}
}

// BenchmarkAblation_UpdateInterval measures fingerprinting accuracy when
// a privileged administrator retunes the sensors from the default 35 ms
// to the fastest 2 ms interval — quantifying what the unprivileged
// attacker is denied (Sec. III-C).
func BenchmarkAblation_UpdateInterval(b *testing.B) {
	models := []string{"MobileNet-V1", "SqueezeNet-1.1", "EfficientNet-Lite0",
		"Inception-V3", "ResNet-50", "VGG-19", "DenseNet-121", "ResNet-18"}
	for i := 0; i < b.N; i++ {
		run := func(interval time.Duration) float64 {
			res, err := core.Fingerprint(core.FingerprintConfig{
				Models:         models,
				TracesPerModel: 10,
				TraceDuration:  2 * time.Second,
				Durations:      []time.Duration{2 * time.Second},
				Channels:       []core.Channel{{Label: board.SensorFPGA, Kind: core.Current}},
				UpdateInterval: interval,
			})
			if err != nil {
				b.Fatal(err)
			}
			cell, err := res.Cell(core.Channel{Label: board.SensorFPGA, Kind: core.Current}, 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			return cell.Top1
		}
		slow := run(35 * time.Millisecond)
		fast := run(2 * time.Millisecond)
		if fast < slow-0.05 {
			b.Fatalf("2 ms interval (%.3f) should not trail 35 ms (%.3f)", fast, slow)
		}
		if i == 0 {
			fmt.Printf("Ablation: FPGA-current top-1 at 35 ms = %.3f, at 2 ms (root-only) = %.3f\n",
				slow, fast)
		}
	}
}

// BenchmarkAblation_Stabilizer compares the RO baseline's variation with
// the stabilizer on and off: crafted-circuit attacks depended on an
// unstabilized PDN, while the current channel barely changes.
func BenchmarkAblation_Stabilizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.CharacterizeConfig{Levels: 41, SamplesPerLevel: 10}
		on, err := core.Characterize(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.DisableStabilizer = true
		off, err := core.Characterize(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if off.RO.RelativeVariation < 5*on.RO.RelativeVariation {
			b.Fatalf("stabilizer off should multiply RO variation: on=%v off=%v",
				on.RO.RelativeVariation, off.RO.RelativeVariation)
		}
		if i == 0 {
			fmt.Printf("Ablation: RO relative variation stabilized=%.5f unstabilized=%.5f (%.0fx); current %.4f -> %.4f\n",
				on.RO.RelativeVariation, off.RO.RelativeVariation,
				off.RO.RelativeVariation/on.RO.RelativeVariation,
				on.Current.RelativeVariation, off.Current.RelativeVariation)
		}
	}
}

// BenchmarkExtension_Interference re-runs the Fig. 4 attack while a
// co-resident DPU hammers the same fabric: the box-statistics attack
// collapses (the attack wants a quiet victim), though the median trend
// partially survives.
func BenchmarkExtension_Interference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		quiet, err := core.RSAHammingWeight(core.RSAConfig{Samples: 1500})
		if err != nil {
			b.Fatal(err)
		}
		noisy, err := core.RSAHammingWeight(core.RSAConfig{Samples: 1500, ConcurrentDPUModel: "VGG-19"})
		if err != nil {
			b.Fatal(err)
		}
		if noisy.CurrentGroups >= quiet.CurrentGroups {
			b.Fatalf("interference did not degrade: %d vs %d",
				noisy.CurrentGroups, quiet.CurrentGroups)
		}
		if i == 0 {
			fmt.Printf("Extension: concurrent VGG-19 collapses Fig.4 grouping %d -> %d classes; median trend keeps r=%.2f\n",
				quiet.CurrentGroups, noisy.CurrentGroups, noisy.CurrentPearson)
		}
	}
}

// BenchmarkExtension_CovertChannel measures the channel used as a
// PL-to-PS covert channel: OOK over the power-virus amplitude, decoded
// by the unprivileged receiver, at the default and root-retuned sensor
// rates.
func BenchmarkExtension_CovertChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		slow, err := core.CovertTransmit(core.CovertConfig{PayloadBits: 128, SymbolUpdates: 1})
		if err != nil {
			b.Fatal(err)
		}
		fast, err := core.CovertTransmit(core.CovertConfig{
			PayloadBits: 128, SymbolUpdates: 1, UpdateInterval: 2 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if slow.BitErrors != 0 || fast.BitErrors != 0 {
			b.Fatalf("covert BER: slow=%v fast=%v", slow.BER(), fast.BER())
		}
		if i == 0 {
			fmt.Printf("Extension: covert channel %.1f bps error-free at 35 ms; %.0f bps at root-retuned 2 ms\n",
				slow.Throughput, fast.Throughput)
		}
	}
}

// BenchmarkAblation_SpectralFeatures compares the classifier with and
// without phase-invariant spectral features appended to the raw
// resampled trace (an attack refinement beyond the paper's feature set).
func BenchmarkAblation_SpectralFeatures(b *testing.B) {
	models := []string{"MobileNet-V1", "SqueezeNet-1.1", "EfficientNet-Lite0",
		"Inception-V3", "ResNet-50", "VGG-19", "DenseNet-121", "ResNet-18"}
	for i := 0; i < b.N; i++ {
		base := core.FingerprintConfig{
			Models:         models,
			TracesPerModel: 10,
			TraceDuration:  2 * time.Second,
			Durations:      []time.Duration{2 * time.Second},
			Channels:       []core.Channel{{Label: board.SensorFPGA, Kind: core.Current}},
		}
		caps, err := core.CollectDPUTraces(base)
		if err != nil {
			b.Fatal(err)
		}
		eval := func(spectral int) float64 {
			cfg := base
			cfg.SpectralBins = spectral
			res, err := core.EvaluateCaptures(cfg, caps)
			if err != nil {
				b.Fatal(err)
			}
			cell, err := res.Cell(base.Channels[0], 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			return cell.Top1
		}
		raw := eval(0)
		spectral := eval(16)
		if spectral < raw-0.1 {
			b.Fatalf("spectral features hurt badly: %.3f vs %.3f", spectral, raw)
		}
		if i == 0 {
			fmt.Printf("Ablation: FPGA-current top-1 raw features = %.3f, +16 spectral bins = %.3f\n",
				raw, spectral)
		}
	}
}

// BenchmarkAblation_MontgomeryLadder runs the Fig. 4 attack against an
// RSA victim hardened with a Montgomery ladder (constant per-iteration
// activity). The leak must vanish: all 17 keys collapse into one group.
func BenchmarkAblation_MontgomeryLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RSAHammingWeight(core.RSAConfig{Samples: 2000, Countermeasure: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.CurrentGroups != 1 {
			b.Fatalf("ladder current groups = %d, want 1", res.CurrentGroups)
		}
		if i == 0 {
			fmt.Printf("Ablation: Montgomery ladder collapses 17 Hamming-weight classes into %d current group(s); Pearson %.3f\n",
				res.CurrentGroups, res.CurrentPearson)
		}
	}
}

// BenchmarkExtension_Applicability runs the attack's discovery and
// characterization loop on all 8 Table I boards, backing the paper's
// claim that the channel exists wherever INA226 sensors do.
func BenchmarkExtension_Applicability(b *testing.B) {
	var printOnce sync.Once
	for i := 0; i < b.N; i++ {
		rows, err := core.Applicability(core.ApplicabilityConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.CurrentPearson < 0.99 || !r.VoltageInBand {
				b.Fatalf("%s: pearson=%v inBand=%v", r.Board, r.CurrentPearson, r.VoltageInBand)
			}
		}
		printOnce.Do(func() { _ = report.RenderApplicability(os.Stdout, rows) })
	}
}

// BenchmarkAblation_TVLA runs the standard fixed-vs-random leakage
// assessment over the channel: the plain RSA victim fails decisively,
// the Montgomery-ladder victim passes.
func BenchmarkAblation_TVLA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain, err := core.AssessRSALeakage(core.LeakageConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if !plain.TVLA.Leaks {
			b.Fatalf("plain victim passed TVLA (t=%v)", plain.TVLA.T)
		}
		ladder, err := core.AssessRSALeakage(core.LeakageConfig{Countermeasure: true})
		if err != nil {
			b.Fatal(err)
		}
		if ladder.TVLA.Leaks {
			b.Fatalf("ladder victim failed TVLA (t=%v)", ladder.TVLA.T)
		}
		if i == 0 {
			fmt.Printf("Ablation: TVLA |t| plain=%.1f (leaks), ladder=%.1f (passes); SNR plain=%.0f ladder=%.2f\n",
				math.Abs(plain.TVLA.T), math.Abs(ladder.TVLA.T), plain.SNR, ladder.SNR)
		}
	}
}

// BenchmarkAblation_Mitigation measures the Sec. V countermeasure: after
// restricting hwmon to root, the unprivileged sampling path fails.
func BenchmarkAblation_Mitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Mitigation(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Effective() {
			b.Fatal("mitigation ineffective")
		}
	}
}
