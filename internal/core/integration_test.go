package core

import (
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

// Integration tests: several attack stages composed on one live board,
// the way the CLIs use the library.

// TestIntegrationTriageThenFingerprint runs the realistic end-to-end
// story: discover sensors, triage them under victim load, record the
// top-ranked channel, and classify a black-box victim with a model
// trained on other captures.
func TestIntegrationTriageThenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage integration")
	}
	// Stage 1: offline training set.
	cfg := FingerprintConfig{
		Models:         []string{"MobileNet-V1", "ResNet-50", "VGG-19"},
		TracesPerModel: 6,
		TraceDuration:  2 * time.Second,
		Durations:      []time.Duration{2 * time.Second},
		Folds:          3,
		Trees:          30,
		Channels:       []Channel{{Label: board.SensorFPGA, Kind: Current}},
	}
	caps, err := CollectDPUTraces(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainClassifier(cfg, caps, cfg.Channels[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Stage 2: a black-box board the attacker has never seen. Triage
	// finds the FPGA sensor; the recorder taps it; the classifier names
	// the model.
	b, err := board.NewZCU102(board.Config{Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := deployDPUForTest(b) // runs ResNet-50
	if err != nil {
		t.Fatal(err)
	}
	_ = victim
	b.Run(100 * time.Millisecond)
	atk, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Survey(b, atk, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The triage's top-3 must contain the FPGA sensor; tap it by label.
	var fpgaLabel string
	for _, r := range rows[:3] {
		if r.Label == board.SensorFPGA {
			fpgaLabel = r.Label
		}
	}
	if fpgaLabel == "" {
		t.Fatalf("triage missed the FPGA sensor: %+v", rows[:3])
	}
	dev, _ := b.Sensor(fpgaLabel)
	rec, err := atk.NewRecorder(Channel{Label: fpgaLabel, Kind: Current}, dev.UpdateInterval())
	if err != nil {
		t.Fatal(err)
	}
	b.Engine().MustRegister("integration-rec", rec)
	b.Run(2*time.Second + dev.UpdateInterval())
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	blackbox := &Capture{
		Model: "?",
		Traces: map[Channel]*trace.Trace{
			{Label: fpgaLabel, Kind: Current}: tr,
		},
	}
	guess, err := clf.Classify(blackbox)
	if err != nil {
		t.Fatal(err)
	}
	if guess != "ResNet-50" {
		t.Fatalf("black-box classified as %s, want ResNet-50", guess)
	}
}

// TestIntegrationMitigationStopsRecorder shows the whole sampling
// pipeline failing cleanly mid-run when the mitigation lands.
func TestIntegrationMitigationStopsRecorder(t *testing.T) {
	b, err := board.NewZCU102(board.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	atk, _ := NewAttacker(b.Sysfs(), sysfs.Nobody)
	dev, _ := b.Sensor(board.SensorFPGA)
	rec, err := atk.NewRecorder(Channel{Label: board.SensorFPGA, Kind: Current}, dev.UpdateInterval())
	if err != nil {
		t.Fatal(err)
	}
	b.Engine().MustRegister("rec", rec)
	b.Run(200 * time.Millisecond)
	if err := b.Hwmon().RestrictAllToRoot(); err != nil {
		t.Fatal(err)
	}
	b.Run(200 * time.Millisecond)
	tr, err := rec.Trace()
	if err == nil {
		t.Fatal("recorder kept sampling after the mitigation")
	}
	if len(tr.Samples) == 0 {
		t.Fatal("pre-mitigation samples lost")
	}
}
