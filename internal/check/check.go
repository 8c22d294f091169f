// Package check is the repository's property-based correctness engine:
// a pure-stdlib Forall runner with typed generators, bounded
// deterministic shrinking, and a labels/classification report.
//
// The numeric core of the reproduction (TVLA t-tests, spectra,
// gap-aware DSP) fails silently when it fails — a wrong number, not a
// crash — which is exactly the class of bug example tests miss.
// Property and metamorphic suites state each contract once ("variance
// is shift-invariant", "the decoder inverts the encoder at zero noise")
// and hold it across randomized inputs.
//
// # Determinism
//
// Every property draws its randomness from a stream derived from a
// root seed and the property's name with the same FNV-1a mixing that
// sim.Engine.Stream and runner.ShardSeed use (DeriveSeed), so a run is
// a pure function of the root seed. The root seed defaults to
// DefaultSeed — CI is deterministic with no extra flags — and can be
// overridden with -check.seed. A failing property prints its seed;
// re-running with that seed reproduces the byte-identical minimal
// counterexample, because shrinking explores candidates in a fixed
// order and shrinkers are pure functions.
//
// # Replaying a counterexample
//
//	go test -run 'TestPropFoo' ./internal/bar -args -check.seed=12345
//
// -check.iters raises the iteration count for a nightly deep run
// (scripts/proptest.sh); the counterexample search is unaffected as
// long as the seed matches and the failing iteration is in range.
package check

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// DefaultSeed is the fixed root seed used when -check.seed is not
// given, so plain `go test ./...` (and CI) is deterministic.
const DefaultSeed = 0xB1EED

// DefaultIters is the per-property iteration count when -check.iters
// is not given: high enough to catch the planted-bug mutants in this
// package's self-tests, low enough to keep tier-1 test time flat.
const DefaultIters = 100

// DefaultMaxShrink bounds the number of successful shrink steps, so a
// pathological shrinker cannot loop forever. Linear-descent shrinkers
// (v-1 chains) need room; 4096 covers every generator in this package.
const DefaultMaxShrink = 4096

var (
	flagSeed  = flag.Int64("check.seed", DefaultSeed, "root seed for property-based tests; a failing property prints the seed to pass back here to replay its shrunk counterexample")
	flagIters = flag.Int("check.iters", DefaultIters, "iterations per property (raise for a nightly deep run; must be >= 1)")
)

// DeriveSeed mixes the root seed with a stream name: root XOR
// FNV-1a(name). It is the same derivation sim.Engine.Stream uses for
// component streams and runner.ShardSeed uses for shard seeds, so each
// property draws from its own stream while the whole run remains a
// pure function of the root seed. (math/rand reduces the seed mod
// 2³¹−1, so two names share a stream with probability about 2⁻³¹.)
func DeriveSeed(root int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return root ^ int64(h.Sum64())
}

// Gen generates random values of type V and knows how to simplify a
// failing one.
type Gen[V any] struct {
	// Generate draws one value. size grows from 1 to ~100 across the
	// run, so early iterations probe small inputs and later ones large;
	// generators are free to ignore it.
	Generate func(r *rand.Rand, size int) V
	// Shrink returns strictly-simpler candidate replacements for v,
	// most aggressive first. The runner keeps the first candidate that
	// still fails the property and repeats. Shrinkers must be pure and
	// monotone (never re-grow a value), which is what makes the minimal
	// counterexample deterministic. Nil disables shrinking.
	Shrink func(v V) []V
	// Describe renders a value in failure reports. Nil means %#v.
	Describe func(v V) string
}

func (g Gen[V]) describe(v V) string {
	if g.Describe != nil {
		return g.Describe(v)
	}
	return fmt.Sprintf("%#v", v)
}

// T is the property body's testing handle. It mirrors the testing.T
// surface properties need (Errorf/Fatalf/Logf/Fail/FailNow/Failed) but
// records instead of reporting, so the runner can catch a failure,
// shrink the input, and report only the minimal counterexample.
type T struct {
	failed  bool
	logs    []string
	labels  []string
	discard bool
}

// failNow and discardNow are the panic sentinels behind FailNow and
// Discard; the runner recovers them.
type failNow struct{}
type discardNow struct{}

// Errorf records a failure with a message.
func (c *T) Errorf(format string, args ...any) {
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
	c.failed = true
}

// Fatalf records a failure and aborts the property body.
func (c *T) Fatalf(format string, args ...any) {
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
	c.failed = true
	panic(failNow{})
}

// Fail marks the property falsified without a message.
func (c *T) Fail() { c.failed = true }

// FailNow marks the property falsified and aborts the body.
func (c *T) FailNow() {
	c.failed = true
	panic(failNow{})
}

// Failed reports whether this input falsified the property so far.
func (c *T) Failed() bool { return c.failed }

// Logf records a message shown with the counterexample if this input
// ends up the minimal one.
func (c *T) Logf(format string, args ...any) {
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
}

// Label tags this iteration for the classification report, e.g.
// c.Label("has-gaps"). Labels make vacuous properties visible: if the
// interesting label never appears, the property tested nothing.
func (c *T) Label(name string) { c.labels = append(c.labels, name) }

// Classify is Label guarded by a condition.
func (c *T) Classify(cond bool, name string) {
	if cond {
		c.Label(name)
	}
}

// Discard abandons this iteration without counting it for or against
// the property (a generator precondition failed). A property whose
// every iteration discards is reported as vacuous and fails.
func (c *T) Discard() {
	c.discard = true
	panic(discardNow{})
}

// Option adjusts one property run.
type Option func(*config)

type config struct {
	iters     int
	seed      int64
	maxShrink int
}

// Iters overrides the iteration count for one property (e.g. a
// heavyweight end-to-end property that holds at fewer iterations).
func Iters(n int) Option { return func(c *config) { c.iters = n } }

// Seed overrides the root seed for one property; used by the engine's
// own replay self-tests. Test suites normally leave the seed to the
// -check.seed flag so a printed seed replays everything.
func Seed(s int64) Option { return func(c *config) { c.seed = s } }

// MaxShrink overrides the successful-shrink-step bound.
func MaxShrink(n int) Option { return func(c *config) { c.maxShrink = n } }

// Report is the outcome of one property run.
type Report[V any] struct {
	// Name of the property (the test name under Forall).
	Name string
	// Seed is the root seed the run used (flag or Seed option).
	Seed int64
	// Iters requested and Discards observed.
	Iters    int
	Discards int
	// Labels counts each label across non-discarded iterations.
	Labels map[string]int
	// Failed reports whether the property was falsified.
	Failed bool
	// FailIter is the 0-based iteration whose input falsified the
	// property (before shrinking).
	FailIter int
	// Counterexample is the minimal failing input after shrinking;
	// Rendered is its Describe form.
	Counterexample V
	Rendered       string
	// ShrinkSteps is how many successful simplifications led to it.
	ShrinkSteps int
	// Logs are the property's messages on the minimal counterexample.
	Logs []string
	// Vacuous reports that every iteration discarded.
	Vacuous bool
	// ConfigErr describes an invalid flag/option combination; set
	// before any iteration runs.
	ConfigErr string
}

// callResult is the outcome of running the property body once.
type callResult struct {
	failed  bool
	discard bool
	logs    []string
	labels  []string
}

// call runs the property body on one input with panic isolation: a
// non-sentinel panic (index out of range in the code under test, ...)
// counts as a failure carrying the panic value.
func call[V any](prop func(*T, V), v V) callResult {
	c := &T{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				switch r.(type) {
				case failNow, discardNow:
					// sentinels; state already on c
				default:
					c.failed = true
					c.logs = append(c.logs, fmt.Sprintf("panic: %v", r))
				}
			}
		}()
		prop(c, v)
	}()
	return callResult{failed: c.failed, discard: c.discard, logs: c.logs, labels: c.labels}
}

// Run executes the property and returns its Report without touching a
// testing.T; Forall is the usual entry point. Run exists so the
// engine's self-tests can assert byte-identical failure reports across
// replays of a planted bug.
func Run[V any](name string, g Gen[V], prop func(*T, V), opts ...Option) Report[V] {
	cfg := config{iters: *flagIters, seed: *flagSeed, maxShrink: DefaultMaxShrink}
	for _, o := range opts {
		o(&cfg)
	}
	rep := Report[V]{Name: name, Seed: cfg.seed, Iters: cfg.iters, Labels: map[string]int{}}
	if cfg.iters < 1 {
		rep.ConfigErr = fmt.Sprintf("check: -check.iters must be >= 1 (got %d)", cfg.iters)
		return rep
	}
	if cfg.maxShrink < 0 {
		rep.ConfigErr = fmt.Sprintf("check: max shrink steps must be >= 0 (got %d)", cfg.maxShrink)
		return rep
	}
	if g.Generate == nil {
		rep.ConfigErr = "check: generator has no Generate function"
		return rep
	}

	rng := rand.New(rand.NewSource(DeriveSeed(cfg.seed, name)))
	for i := 0; i < cfg.iters; i++ {
		size := 1 + (100*i)/cfg.iters
		v := g.Generate(rng, size)
		res := call(prop, v)
		if res.discard {
			rep.Discards++
			continue
		}
		for _, l := range res.labels {
			rep.Labels[l]++
		}
		if !res.failed {
			continue
		}
		rep.Failed = true
		rep.FailIter = i
		rep.Counterexample, rep.ShrinkSteps = shrink(g, prop, v, cfg.maxShrink)
		rep.Rendered = g.describe(rep.Counterexample)
		final := call(prop, rep.Counterexample)
		rep.Logs = final.logs
		return rep
	}
	rep.Vacuous = rep.Discards == cfg.iters
	return rep
}

// shrink greedily minimizes a failing input: take the first candidate
// that still fails, repeat, stop when no candidate fails or the step
// budget is spent. Candidates are explored in the shrinker's order and
// shrinkers are pure, so the result is deterministic.
func shrink[V any](g Gen[V], prop func(*T, V), v V, maxSteps int) (V, int) {
	if g.Shrink == nil {
		return v, 0
	}
	steps := 0
	for steps < maxSteps {
		shrunk := false
		for _, cand := range g.Shrink(v) {
			if res := call(prop, cand); res.failed && !res.discard {
				v = cand
				steps++
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	return v, steps
}

// Failure renders the failure message Forall reports, including the
// replay line; it is the string the determinism self-test pins
// byte-for-byte across replays.
func (r Report[V]) Failure() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s: falsified (seed %d, iteration %d, shrunk %d steps)\n",
		r.Name, r.Seed, r.FailIter, r.ShrinkSteps)
	fmt.Fprintf(&b, "  counterexample: %s\n", r.Rendered)
	for _, l := range r.Logs {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "replay: go test -run '%s' -args -check.seed=%d -check.iters=%d",
		runPattern(r.Name), r.Seed, r.Iters)
	return b.String()
}

// runPattern turns a (sub)test name into the -run pattern that reaches
// it: the top-level test name, so replays re-enter through the same
// Forall call.
func runPattern(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelSummary renders the classification report: labels sorted by
// name with counts and percentages over non-discarded iterations.
func (r Report[V]) labelSummary() string {
	executed := r.Iters - r.Discards
	if executed <= 0 || len(r.Labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(r.Labels))
	for n := range r.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d (%d%%)", n, r.Labels[n], 100*r.Labels[n]/executed)
	}
	return strings.Join(parts, ", ")
}

// Forall checks the property against cfg.iters random inputs from the
// generator and fails t with the shrunk minimal counterexample (plus a
// replay line) if any input falsifies it. A property whose every
// iteration discards fails as vacuous: it tested nothing, and silence
// would hide that.
func Forall[V any](t *testing.T, g Gen[V], prop func(*T, V), opts ...Option) {
	t.Helper()
	rep := Run(t.Name(), g, prop, opts...)
	if rep.ConfigErr != "" {
		t.Fatal(rep.ConfigErr)
	}
	if rep.Failed {
		t.Error(rep.Failure())
		return
	}
	if rep.Vacuous {
		t.Errorf("check: %s: vacuous property: all %d iterations discarded (generator preconditions too strict)", rep.Name, rep.Iters)
		return
	}
	if s := rep.labelSummary(); s != "" {
		t.Logf("check: %s: %d iterations ok (%d discarded); labels: %s", rep.Name, rep.Iters, rep.Discards, s)
	} else if testing.Verbose() {
		t.Logf("check: %s: %d iterations ok (%d discarded)", rep.Name, rep.Iters, rep.Discards)
	}
}
