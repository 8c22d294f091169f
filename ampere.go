// Package ampere is the public API of the AmpereBleed reproduction: a
// circuit-free, unprivileged power side-channel attack on ARM-FPGA SoCs
// that samples the boards' INA226 current sensors through the Linux
// hwmon interface (DAC 2025).
//
// Because the attack targets hardware (a Xilinx ZCU102), this library
// ships a full simulation of the board — FPGA fabric, power delivery
// network with a voltage stabilizer, INA226 register models, a sysfs/
// hwmon tree with real permission semantics, and the paper's victim
// circuits (power-virus array, ring-oscillator baseline, Vitis-AI-style
// DPU with a 39-model zoo, RSA-1024 square-and-multiply engine). The
// attack code path is identical to the real one: unprivileged file
// reads of curr1_input/in1_input/power1_input.
//
// Typical use:
//
//	b, _ := ampere.NewBoard(ampere.BoardConfig{Seed: 1})
//	b.Run(100 * time.Millisecond)
//	atk, _ := ampere.NewAttacker(b.Sysfs(), ampere.Unprivileged)
//	probe, _ := atk.Probe(ampere.Channel{Label: ampere.SensorFPGA, Kind: ampere.Current})
//	amps, _ := probe() // FPGA current, no privileges, no crafted circuit
//
// The three paper experiments are one call each: Characterize (Fig. 2),
// Fingerprint (Fig. 3 / Table III), and RSAHammingWeight (Fig. 4);
// Mitigation demonstrates the Sec. V countermeasure.
package ampere

import (
	"io"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/dpu"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sysfs"
)

// Board is the simulated ZCU102 evaluation board.
type Board = board.ZCU102

// BoardConfig configures a Board.
type BoardConfig = board.Config

// BoardSpec is one Table I catalog row.
type BoardSpec = board.Spec

// Cred is a permission credential for sysfs access.
type Cred = sysfs.Cred

// Credentials for the two sides of the threat model.
var (
	// Unprivileged is the attacker's credential.
	Unprivileged = sysfs.Nobody
	// Privileged is the administrator's credential.
	Privileged = sysfs.Root
)

// Attacker is the unprivileged measurement side of the attack.
type Attacker = core.Attacker

// Channel identifies a sensor and measurement kind.
type Channel = core.Channel

// Kind selects current, voltage, or power.
type Kind = core.Kind

// Measurement kinds.
const (
	Current = core.Current
	Voltage = core.Voltage
	Power   = core.Power
)

// Sensitive ZCU102 sensor labels (Table II).
const (
	SensorCPUFull = board.SensorCPUFull
	SensorCPULow  = board.SensorCPULow
	SensorFPGA    = board.SensorFPGA
	SensorDDR     = board.SensorDDR
)

// Experiment configurations and results.
type (
	// CharacterizeConfig parameterizes the Fig. 2 sweep.
	CharacterizeConfig = core.CharacterizeConfig
	// CharacterizeResult is the Fig. 2 dataset.
	CharacterizeResult = core.CharacterizeResult
	// FingerprintConfig parameterizes the Table III experiment.
	FingerprintConfig = core.FingerprintConfig
	// FingerprintResult is the Table III grid.
	FingerprintResult = core.FingerprintResult
	// Capture is one victim run observed on every channel.
	Capture = core.Capture
	// RSAConfig parameterizes the Fig. 4 experiment.
	RSAConfig = core.RSAConfig
	// RSAResult is the Fig. 4 dataset.
	RSAResult = core.RSAResult
	// MitigationResult records the Sec. V countermeasure outcome.
	MitigationResult = core.MitigationResult
	// Classifier is the attack's online phase: label a black-box
	// accelerator from a fresh trace.
	Classifier = core.Classifier
	// LeakageConfig parameterizes the TVLA leakage assessment.
	LeakageConfig = core.LeakageConfig
	// LeakageResult is the TVLA/SNR assessment outcome.
	LeakageResult = core.LeakageResult
	// DNNModel is a DPU-deployable workload description.
	DNNModel = dpu.Model
)

// NewBoard builds a fully wired simulated ZCU102.
func NewBoard(cfg BoardConfig) (*Board, error) { return board.NewZCU102(cfg) }

// BoardCatalog returns the 8 surveyed boards of Table I.
func BoardCatalog() []BoardSpec { return board.Catalog() }

// NewAttacker returns an attacker over a board's sysfs tree.
func NewAttacker(fs *sysfs.FS, cred Cred) (*Attacker, error) {
	return core.NewAttacker(fs, cred)
}

// SensitiveChannels returns the six channels Table III evaluates.
func SensitiveChannels() []Channel { return core.SensitiveChannels() }

// Characterize runs the Fig. 2 sweep: current/voltage/power/RO response
// to 0..160 k active power-virus instances.
func Characterize(cfg CharacterizeConfig) (*CharacterizeResult, error) {
	return core.Characterize(cfg)
}

// Fingerprint runs the Table III experiment: random-forest model
// fingerprinting over the DPU zoo.
func Fingerprint(cfg FingerprintConfig) (*FingerprintResult, error) {
	return core.Fingerprint(cfg)
}

// CollectDPUTraces runs only the offline trace-collection phase.
func CollectDPUTraces(cfg FingerprintConfig) ([]*Capture, error) {
	return core.CollectDPUTraces(cfg)
}

// EvaluateCaptures runs only the classification phase.
func EvaluateCaptures(cfg FingerprintConfig, caps []*Capture) (*FingerprintResult, error) {
	return core.EvaluateCaptures(cfg, caps)
}

// TrainClassifier fits the fingerprinting attack's offline-phase model
// for one channel and duration.
func TrainClassifier(cfg FingerprintConfig, caps []*Capture, ch Channel, d time.Duration) (*Classifier, error) {
	return core.TrainClassifier(cfg, caps, ch, d)
}

// RSAHammingWeight runs the Fig. 4 experiment: Hamming-weight recovery
// from an RSA-1024 circuit.
func RSAHammingWeight(cfg RSAConfig) (*RSAResult, error) {
	return core.RSAHammingWeight(cfg)
}

// Mitigation runs the Sec. V countermeasure end to end.
func Mitigation(seed int64) (*MitigationResult, error) { return core.Mitigation(seed) }

// AssessRSALeakage runs the TVLA fixed-vs-random leakage test over the
// FPGA current channel against the RSA victim.
func AssessRSALeakage(cfg LeakageConfig) (*LeakageResult, error) {
	return core.AssessRSALeakage(cfg)
}

// SurveyRow summarizes one sensor in a triage survey.
type SurveyRow = core.SurveyRow

// CovertConfig parameterizes a covert-channel transmission.
type CovertConfig = core.CovertConfig

// SaveCaptures writes captures as JSON for offline analysis.
func SaveCaptures(w io.Writer, caps []*Capture) error { return core.SaveCaptures(w, caps) }

// LoadCaptures reads captures written by SaveCaptures.
func LoadCaptures(r io.Reader) ([]*Capture, error) { return core.LoadCaptures(r) }

// CovertResult summarizes a covert transmission.
type CovertResult = core.CovertResult

// CovertTransmit sends bits from an FPGA-side sender (modulated
// power-virus activity) to the unprivileged CPU-side receiver through
// the current sensor, and reports the bit error rate and throughput.
func CovertTransmit(cfg CovertConfig) (*CovertResult, error) {
	return core.CovertTransmit(cfg)
}

// ApplicabilityConfig parameterizes the cross-board experiment.
type ApplicabilityConfig = core.ApplicabilityConfig

// BoardApplicability is one board's cross-board outcome.
type BoardApplicability = core.BoardApplicability

// Applicability runs the attack's discovery+characterization loop on
// every Table I board, backing the paper's applicability claim.
func Applicability(cfg ApplicabilityConfig) ([]BoardApplicability, error) {
	return core.Applicability(cfg)
}

// FaultProfile is a composable fault-injection profile for the
// simulated sensor stack (sysfs read errors, stale INA226 latches,
// register bit-flips, scheduler jitter/dropouts, hwmon renumbering,
// regulator transients). Pass one via the Faults field of the
// experiment configs, or scale a preset with Profile.Scale.
type FaultProfile = faults.Profile

// FaultPreset returns a built-in fault profile by name; see
// FaultPresetNames for the catalogue.
func FaultPreset(name string) (FaultProfile, error) { return faults.Preset(name) }

// FaultPresetNames lists the built-in fault profiles
// (none|flaky-sysfs|stale-sensor|noisy-sched|hostile).
func FaultPresetNames() []string { return faults.PresetNames() }

// RobustnessConfig parameterizes the accuracy-vs-fault-rate sweep.
type RobustnessConfig = core.RobustnessConfig

// RobustnessPoint is one intensity's outcome in the sweep.
type RobustnessPoint = core.RobustnessPoint

// RobustnessResult is the full accuracy-vs-fault-rate curve.
type RobustnessResult = core.RobustnessResult

// Robustness reruns applicability, fingerprinting, and the covert
// channel under a fault profile at increasing intensities, charting how
// gracefully the attack degrades as the sensor stack gets hostile.
func Robustness(cfg RobustnessConfig) (*RobustnessResult, error) {
	return core.Robustness(cfg)
}

// NewBoardByName wires any Table I board by catalog name.
func NewBoardByName(name string, cfg BoardConfig) (*Board, error) {
	return board.New(name, cfg)
}

// Survey polls every discovered sensor's current channel for the given
// duration and ranks them by observed variation — the attacker's triage
// step when labels are missing or meaningless.
func Survey(b *Board, a *Attacker, duration time.Duration) ([]SurveyRow, error) {
	return core.Survey(b, a, duration)
}

// ObsSnapshot is a point-in-time copy of the library's observability
// registry: counters (sysfs reads, INA226 conversions, captures
// collected, engine ticks), gauges (sim-time/wall-time ratio, progress),
// histograms with p50/p95/p99 (attacker achieved sample rate, classifier
// train/predict timings, and the "span.<name>.{wall,sim}_ns" span
// durations, every completed span counted).
type ObsSnapshot = obs.Snapshot

// ObsHistogramStat is the summary of one snapshot histogram.
type ObsHistogramStat = obs.HistogramStat

// Snapshot captures the current state of every metric the library
// records. Metrics accumulate process-wide across boards and
// experiments; call ResetMetrics first to scope a measurement to one
// run.
func Snapshot() ObsSnapshot { return obs.Default.Snapshot() }

// ResetMetrics zeroes the observability registry in place (cached
// metric handles stay live). The reset is not atomic with respect to a
// running experiment, so call it between experiments, not during one.
func ResetMetrics() { obs.Default.Reset() }

// ModelZoo builds and returns the 39 DNN architectures of the
// fingerprinting suite. Every call builds all 39 afresh and the caller
// owns them; LoadZooModel builds just the one it deploys.
func ModelZoo() []*DNNModel { return dpu.Zoo() }

// Fig3Models returns the six models whose traces Fig. 3 plots.
func Fig3Models() []string { return dpu.Fig3Models() }
