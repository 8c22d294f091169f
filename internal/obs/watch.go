package obs

// Threshold-based health rules. A long sampling run degrades silently:
// the resilient sampling layer absorbs faults into gaps and retries,
// and nothing complains until the post-hoc analysis looks wrong. A
// Watcher turns the registry's own metrics into a live verdict — each
// rule inspects the current snapshot (and, when a history recorder is
// running, the retained time series, so ratio rules judge the last N
// sampling windows instead of the whole process lifetime), violations
// are emitted as structured warn-level events (and through an optional
// callback, which the CLIs route into the olog facade), and the
// /healthz endpoint reports the current verdict for scripts and
// orchestrators (?verbose=1 for the full structured list).
//
// Windowed evaluation is what lets /healthz recover: a transient fault
// burst during a covert run pushes the recent-window gap ratio over
// threshold (503) and then ages out of the window (back to 200), where
// a cumulative ratio would have pinned the verdict unhealthy for the
// rest of the process.
//
// obs.watch.violations is registered lazily by Watch so non-watching
// processes keep their deterministic counter set unchanged.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Violation is one failed health rule evaluation.
type Violation struct {
	// Rule is the failing rule's name.
	Rule string `json:"rule"`
	// Detail explains the failure with the observed and threshold values.
	Detail string `json:"detail"`
	// At is the evaluation time.
	At time.Time `json:"at"`
}

// Verdict is one rule's structured evaluation result, the schema behind
// /healthz?verbose=1.
type Verdict struct {
	// Rule is the rule's name.
	Rule string `json:"rule"`
	// OK reports whether the rule passed.
	OK bool `json:"ok"`
	// Window names the evaluation horizon: "10×1s" for a windowed rule
	// judging the last 10 one-second samples, "cumulative" for
	// process-lifetime totals, "instant" for point-in-time checks.
	Window string `json:"window"`
	// Observed and Threshold are the compared values.
	Observed  float64 `json:"observed"`
	Threshold float64 `json:"threshold"`
	// Detail is the human-readable explanation (set on failure).
	Detail string `json:"detail,omitempty"`
	// At is the evaluation time.
	At time.Time `json:"at"`
}

// EvalInput is what a rule sees: the current snapshot and the
// registry's history recorder when one is running (nil otherwise),
// which windowed rules use and others ignore.
type EvalInput struct {
	Cur     Snapshot
	History *Recorder
}

// Rule is one health predicate over the registry.
type Rule struct {
	// Name identifies the rule in events, logs, and /healthz output.
	Name string
	// Eval judges the input and returns a structured verdict; the
	// watcher fills Rule and At.
	Eval func(in EvalInput) Verdict
}

// fail formats a failing verdict.
func fail(window string, observed, threshold float64, format string, args ...any) Verdict {
	return Verdict{OK: false, Window: window, Observed: observed, Threshold: threshold, Detail: fmt.Sprintf(format, args...)}
}

func pass(window string, observed, threshold float64) Verdict {
	return Verdict{OK: true, Window: window, Observed: observed, Threshold: threshold}
}

// DefaultHealthWindows is how many sampling intervals windowed default
// rules look back over.
const DefaultHealthWindows = 10

// WindowedRatioRule fails when num/den, measured over the last windows
// sampling intervals of the registry's history, exceeds max (den==0
// never fails). Without a history recorder — or before it holds two
// points in the window — the rule falls back to the cumulative ratio,
// so health checks degrade gracefully rather than going silent; the
// verdict's Window field says which horizon judged ("10×1s" vs
// "cumulative").
func WindowedRatioRule(name, num, den string, max float64, windows int) Rule {
	if windows < 1 {
		windows = DefaultHealthWindows
	}
	return Rule{Name: name, Eval: func(in EvalInput) Verdict {
		if h := in.History; h != nil {
			dn, okN := h.WindowedCounterDelta(num, windows)
			dd, okD := h.WindowedCounterDelta(den, windows)
			if okN && okD {
				window := fmt.Sprintf("%d×%s", windows, h.Interval())
				return ratioVerdict(window, dn, dd, num, den, max)
			}
		}
		return ratioVerdict("cumulative", float64(in.Cur.Counter(num)), float64(in.Cur.Counter(den)), num, den, max)
	}}
}

func ratioVerdict(window string, num, den float64, numName, denName string, max float64) Verdict {
	if den == 0 {
		return pass(window, 0, max)
	}
	ratio := num / den
	if ratio > max {
		return fail(window, ratio, max, "%s/%s = %.3f exceeds %.3f over %s", numName, denName, ratio, max, window)
	}
	return pass(window, ratio, max)
}

// GaugeCeilingRule fails when the named gauge exceeds max.
func GaugeCeilingRule(name, gauge string, max float64) Rule {
	return Rule{Name: name, Eval: func(in EvalInput) Verdict {
		v := in.Cur.Gauge(gauge)
		if v > max {
			return fail("instant", v, max, "%s = %g exceeds ceiling %g", gauge, v, max)
		}
		return pass("instant", v, max)
	}}
}

// DefaultHealthRules are the rules the CLIs install when serving obs
// endpoints: the sampling layer may absorb faults, but when more than
// half the recorded samples are gaps, or one sampler is stuck in a long
// consecutive-gap run, the run's figures are no longer trustworthy. The
// ratio rules evaluate over the last DefaultHealthWindows sampling
// intervals when a history recorder is running (so /healthz recovers
// once a transient burst ages out) and over cumulative totals
// otherwise.
func DefaultHealthRules() []Rule {
	return []Rule{
		WindowedRatioRule("trace.gap_ratio", "trace.gaps_recorded", "trace.samples_recorded", 0.5, DefaultHealthWindows),
		WindowedRatioRule("core.sampler.gap_ratio", "core.sampler.gaps", "core.sampler.samples", 0.5, DefaultHealthWindows),
		GaugeCeilingRule("core.sampler.consecutive_gaps", "core.sampler.consecutive_gaps", 64),
		WindowedRatioRule("runner.shard_failures", "runner.shards_failed", "runner.shards", 0.25, DefaultHealthWindows),
	}
}

// Watcher evaluates a rule set against the registry.
type Watcher struct {
	reg   *Registry
	rules []Rule

	mu          sync.Mutex
	onViolation func(Violation)
	violations  *Counter
}

// Watch installs a watcher on the registry and makes it the /healthz
// authority. Passing no rules installs DefaultHealthRules.
func (r *Registry) Watch(rules ...Rule) *Watcher {
	if len(rules) == 0 {
		rules = DefaultHealthRules()
	}
	w := &Watcher{
		reg:        r,
		rules:      rules,
		violations: r.Counter("obs.watch.violations"),
	}
	r.health.Store(w)
	return w
}

// Watch installs a watcher on the Default registry.
func Watch(rules ...Rule) *Watcher { return Default.Watch(rules...) }

// OnViolation sets a callback invoked for each violation as it is
// detected (the CLIs log it through olog at warn level).
func (w *Watcher) OnViolation(f func(Violation)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onViolation = f
}

// EvaluateVerdicts snapshots the registry, runs every rule, records
// violations as warn events and through the callback, and returns one
// verdict per rule (passing and failing).
func (w *Watcher) EvaluateVerdicts() []Verdict {
	cur := w.reg.Snapshot()
	w.mu.Lock()
	cb := w.onViolation
	w.mu.Unlock()

	in := EvalInput{Cur: cur, History: w.reg.History()}
	out := make([]Verdict, 0, len(w.rules))
	for _, rule := range w.rules {
		v := rule.Eval(in)
		v.Rule = rule.Name
		v.At = cur.TakenAt
		out = append(out, v)
		if v.OK {
			continue
		}
		viol := Violation{Rule: v.Rule, Detail: v.Detail, At: v.At}
		w.violations.Inc()
		w.reg.Eventf("WARN watch: %s: %s", viol.Rule, viol.Detail)
		if cb != nil {
			cb(viol)
		}
	}
	return out
}

// Evaluate runs EvaluateVerdicts and returns only the violations — the
// shape the CLIs and older callers consume.
func (w *Watcher) Evaluate() []Violation {
	return violationsOf(w.EvaluateVerdicts())
}

func violationsOf(vs []Verdict) []Violation {
	var out []Violation
	for _, v := range vs {
		if !v.OK {
			out = append(out, Violation{Rule: v.Rule, Detail: v.Detail, At: v.At})
		}
	}
	return out
}

// Run evaluates the rules every interval until ctx is done. It is the
// periodic mode the CLIs use while serving; /healthz also evaluates on
// demand, so Run is optional.
func (w *Watcher) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.Evaluate()
		}
	}
}
