package main

// Behaviour oracle: a few amperebleed subcommands at seed 1 are replayed
// against two goldens under testdata/ — their stdout (<name>.txt) and
// the canonical form of the run manifest they append with -ledger
// (<name>.canonical.json, the bytes `amperebleed runs -canonical 0`
// prints). The manifest pins the exact counter set with wall-clock
// fields stripped, so a change that keeps the figures but alters the
// work done is caught as well as one that moves a figure.
//
// Each command runs in a fresh child process (this test binary,
// re-executed with oracleChildEnv set): the CLI parses the global flag
// set and registers metrics in the process-wide registry, so two
// commands cannot share one process.
//
// Regenerate after a deliberate behaviour change with
//
//	go test ./cmd/amperebleed -run TestOracle -update

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/golden"
	"repro/internal/obs/ledger"
)

var update = flag.Bool("update", false, "rewrite the oracle goldens under testdata/")

const oracleChildEnv = "AMPEREBLEED_ORACLE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(oracleChildEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runChild runs amperebleed with args in a fresh process and returns
// its stdout; a non-zero exit fails the test with the child's stderr.
func runChild(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := childCommand(args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("amperebleed %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// childCommand returns the command that runs amperebleed with args in
// a fresh process.
func childCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), oracleChildEnv+"=1")
	return cmd
}

// fingerprintArgs is the reduced Table III run the fingerprint golden
// and the record/replay check share: 16 models x 10 two-second traces,
// 5-fold cross-validation.
var fingerprintArgs = []string{
	"-models", "VGG-11,VGG-19,ResNet-18,ResNet-50,ResNet-152,Inception-V1,Inception-V3,Xception," +
		"MobileNet-V1,MobileNet-V2,EfficientNet-Lite0,EfficientNet-B0,SqueezeNet-1.0,SqueezeNext-23," +
		"DenseNet-121,DenseNet-201",
	"-traces", "10", "-folds", "5", "-duration", "2s",
}

// characterizeArgs is the reduced Fig. 2 sweep the characterize golden
// and the checkpoint check share.
var characterizeArgs = []string{"-levels", "8", "-samples", "5"}

func TestOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string // global flags, then the command and its flags
	}{
		{"characterize", append([]string{"characterize"}, characterizeArgs...)},
		{"covert", []string{"covert", "-bits", "64"}},
		{"applicability-hostile", []string{"-faults", "hostile", "applicability"}},
		// Trains 100-tree forests on gap-carrying hostile-fault captures:
		// the only go test golden that pins random-forest output.
		{"robustness", []string{"robustness"}},
		// The only commands that read the misc-rail sensors, which no
		// attack channel uses.
		{"sensors", []string{"sensors"}},
		{"survey", []string{"survey"}},
		// The FPGA rail's static current enters every tick of the
		// Fig. 4 capture.
		{"rsa", []string{"rsa", "-samples", "1000"}},
		// The only go test golden that pins the TVLA t statistic.
		{"leakage", []string{"leakage"}},
		// A per-layer DPU schedule, pinned nowhere else.
		{"profile", []string{"profile"}},
		// The 39-model Table III suite: each model's input, MACs,
		// parameters and layer count.
		{"zoo", []string{"zoo"}},
		// Table III on clean captures: 100-tree forests on 128-sample
		// training folds of 16 classes.
		{"fingerprint", append([]string{"fingerprint"}, fingerprintArgs...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ledgerPath := filepath.Join(t.TempDir(), "runs.jsonl")
			stdout := runChild(t, append([]string{"-ledger", ledgerPath}, tc.args...)...)
			ms, err := ledger.Read(ledgerPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 1 {
				t.Fatalf("ledger holds %d manifests, want 1", len(ms))
			}
			canon, err := ledger.CanonicalJSON(ms[0])
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".txt"), stdout, *update)
			golden.Check(t, filepath.Join("testdata", tc.name+".canonical.json"), append(canon, '\n'), *update)
			// Canonicalize drops the command's time record; check its shape.
			if e := ms[0].Experiments; len(e) != 1 || e[0].Name != ms[0].Command ||
				!(e[0].WallS > 0 && e[0].WallS <= ms[0].WallSeconds) {
				t.Errorf("experiments %+v, want one %q entry within wall_seconds %g", e, ms[0].Command, ms[0].WallSeconds)
			}
		})
	}
}

// TestFingerprintRecordReplay records the fingerprint golden's captures
// with -save and evaluates them again with -load: the replay must print
// the golden table, and the recording run the same table after its
// "captures written" line.
func TestFingerprintRecordReplay(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fingerprint.txt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "captures.json")
	saved := runChild(t, append([]string{"fingerprint", "-save", path}, fingerprintArgs...)...)
	first, table, _ := bytes.Cut(saved, []byte("\n"))
	if wantFirst := "captures written to " + path; string(first) != wantFirst {
		t.Fatalf("-save run's first line %q, want %q", first, wantFirst)
	}
	if d := golden.FirstDiff(table, want); d != "" {
		t.Errorf("-save run: %s", d)
	}
	replayed := runChild(t, append([]string{"fingerprint", "-load", path}, fingerprintArgs...)...)
	if d := golden.FirstDiff(replayed, want); d != "" {
		t.Errorf("-load run: %s", d)
	}
}

// TestCharacterizeCheckpointReplay runs the characterize golden's sweep
// supervised, with -checkpoint: the job engine must print the golden
// figure, so the checkpointed and the plain command measure the same
// sweep. A fault profile at intensity 0 injects nothing, supervised or
// not, so that run must print the golden too.
func TestCharacterizeCheckpointReplay(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "characterize.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, global := range [][]string{nil, {"-faults", "hostile", "-fault-intensity", "0"}} {
		args := append([]string{}, global...)
		args = append(args, "characterize", "-checkpoint", filepath.Join(t.TempDir(), "characterize.ckpt"))
		got := runChild(t, append(args, characterizeArgs...)...)
		if d := golden.FirstDiff(got, want); d != "" {
			t.Errorf("%v -checkpoint run: %s", global, d)
		}
	}
}

// TestManifestRecordsWorkers reads the non-canonical manifests, which
// keep the worker count: a sharded command run at the default -parallel
// 0 records the GOMAXPROCS workers its shards ran on, as rsa (sharded
// with no -parallel flag) does, and a command that shards nothing
// records 0.
func TestManifestRecordsWorkers(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"characterize", "-levels", "4", "-samples", "3"}, runtime.GOMAXPROCS(0)},
		{[]string{"characterize", "-levels", "4", "-samples", "3", "-parallel", "3"}, 3},
		{[]string{"rsa", "-samples", "50"}, runtime.GOMAXPROCS(0)},
		{[]string{"sensors"}, 0},
	} {
		ledgerPath := filepath.Join(t.TempDir(), "runs.jsonl")
		runChild(t, append([]string{"-ledger", ledgerPath}, tc.args...)...)
		ms, err := ledger.Read(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 {
			t.Fatalf("%v: ledger holds %d manifests, want 1", tc.args, len(ms))
		}
		if ms[0].Workers != tc.want {
			t.Errorf("%v: workers %d, want %d", tc.args, ms[0].Workers, tc.want)
		}
	}
}
