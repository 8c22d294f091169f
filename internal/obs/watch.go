package obs

// Threshold-based health rules. A long sampling run degrades silently:
// the resilient sampling layer absorbs faults into gaps and retries,
// and nothing complains until the post-hoc analysis looks wrong. A
// Watcher turns the registry's own metrics into a live verdict — each
// rule inspects the current snapshot, violations found by the periodic
// Run are emitted as structured warn-level events (and through an
// optional callback, which the CLIs route into the olog facade), and
// the /healthz endpoint reports the current verdict for scripts and
// orchestrators (?verbose=1 for the full structured list).
//
// Evaluation and recording are separate: /healthz only evaluates, so
// how often a prober polls never moves obs.watch.violations or the
// event ring; Evaluate (and Run, which calls it) records.
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
	// Window names the evaluation horizon: "cumulative" for
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

// Rule is one health predicate over the registry.
type Rule struct {
	// Name identifies the rule in events, logs, and /healthz output.
	Name string
	// Eval judges the current snapshot and returns a structured verdict;
	// the watcher fills Rule and At.
	Eval func(cur Snapshot) Verdict
}

// fail formats a failing verdict.
func fail(window string, observed, threshold float64, format string, args ...any) Verdict {
	return Verdict{OK: false, Window: window, Observed: observed, Threshold: threshold, Detail: fmt.Sprintf(format, args...)}
}

func pass(window string, observed, threshold float64) Verdict {
	return Verdict{OK: true, Window: window, Observed: observed, Threshold: threshold}
}

// RatioRule fails when the cumulative ratio of counters num/den
// exceeds max; den==0 (no data yet) never fails.
func RatioRule(name, num, den string, max float64) Rule {
	return Rule{Name: name, Eval: func(cur Snapshot) Verdict {
		n, d := float64(cur.Counter(num)), float64(cur.Counter(den))
		if d == 0 {
			return pass("cumulative", 0, max)
		}
		ratio := n / d
		if ratio > max {
			return fail("cumulative", ratio, max, "%s/%s = %.3f exceeds %.3f over cumulative", num, den, ratio, max)
		}
		return pass("cumulative", ratio, max)
	}}
}

// GaugeCeilingRule fails when the named gauge exceeds max.
func GaugeCeilingRule(name, gauge string, max float64) Rule {
	return Rule{Name: name, Eval: func(cur Snapshot) Verdict {
		v := cur.Gauge(gauge)
		if v > max {
			return fail("instant", v, max, "%s = %g exceeds ceiling %g", gauge, v, max)
		}
		return pass("instant", v, max)
	}}
}

// DefaultHealthRules are the rules the CLIs install when serving obs
// endpoints: the sampling layer may absorb faults, but when more than
// half the recorded samples are gaps, or one sampler is stuck in a long
// consecutive-gap run, the run's figures are no longer trustworthy.
func DefaultHealthRules() []Rule {
	return []Rule{
		RatioRule("trace.gap_ratio", "trace.gaps_recorded", "trace.samples_recorded", 0.5),
		RatioRule("core.sampler.gap_ratio", "core.sampler.gaps", "core.sampler.samples", 0.5),
		GaugeCeilingRule("core.sampler.consecutive_gaps", "core.sampler.consecutive_gaps", 64),
		RatioRule("runner.shard_failures", "runner.shards_failed", "runner.shards", 0.25),
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

// OnViolation sets a callback invoked for each violation Evaluate
// records (the CLIs log it through olog at warn level).
func (w *Watcher) OnViolation(f func(Violation)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onViolation = f
}

// Verdicts snapshots the registry and runs every rule, returning one
// verdict per rule (passing and failing). It records nothing, which is
// what lets /healthz call it on every request.
func (w *Watcher) Verdicts() []Verdict {
	cur := w.reg.Snapshot()
	out := make([]Verdict, 0, len(w.rules))
	for _, rule := range w.rules {
		v := rule.Eval(cur)
		v.Rule = rule.Name
		v.At = cur.TakenAt
		out = append(out, v)
	}
	return out
}

// Evaluate runs Verdicts and records each violation: it increments
// obs.watch.violations, appends a WARN event to the ring and calls the
// OnViolation callback. It returns the violations.
func (w *Watcher) Evaluate() []Violation {
	w.mu.Lock()
	cb := w.onViolation
	w.mu.Unlock()

	var out []Violation
	for _, v := range w.Verdicts() {
		if v.OK {
			continue
		}
		viol := Violation{Rule: v.Rule, Detail: v.Detail, At: v.At}
		out = append(out, viol)
		w.violations.Inc()
		w.reg.Eventf("WARN watch: %s: %s", viol.Rule, viol.Detail)
		if cb != nil {
			cb(viol)
		}
	}
	return out
}

// Run evaluates the rules every interval until ctx is done. It is the
// periodic, recording mode the CLIs use while serving; /healthz
// evaluates on demand without recording.
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
