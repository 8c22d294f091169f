// Package olog is the repository's structured logging facade, a thin
// correlation layer over log/slog. The attack pipeline's interesting
// events — a sample lost to retry exhaustion, a shard panic, a channel
// declared dead — were previously either silent or buried in the bounded
// obs event ring; olog gives them leveled, machine-parseable output
// that a log pipeline can join against the run ledger and trace
// timeline, because every record automatically carries:
//
//   - run: the run ID the CLI stamps at startup (SetRunID), the same
//     identity the ledger manifest records;
//   - sim: the simulated-time timestamp when a sim clock is attached
//     (SetSimClock), so log lines line up with the trace timeline's
//     sim-clock track rather than only wall time;
//   - span: the enclosing span name when the caller threaded one
//     through the context (WithSpan).
//
// The facade is quiet by default: until Setup installs a backend,
// loggers discard everything at zero formatting cost, so library tests
// and embedders see no output. Handles are dynamic — a package-level
// `var log = olog.L("core.sampler")` created before Setup starts
// emitting the moment Setup runs.
package olog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"

	"repro/internal/obs"
)

var (
	levelVar slog.LevelVar
	backend  atomic.Pointer[slog.Handler]
	simClock atomic.Pointer[obs.SimClock]
	runID    atomic.Pointer[string]
)

// Setup installs the process-wide backend. level is one of
// debug|info|warn|error; format is text (logfmt-style, human-first) or
// json (one object per line). Records below level are dropped at the
// Enabled check, before any attribute work.
func Setup(level, format string, w io.Writer) error {
	var l slog.Level
	switch level {
	case "debug":
		l = slog.LevelDebug
	case "info":
		l = slog.LevelInfo
	case "warn", "warning":
		l = slog.LevelWarn
	case "error":
		l = slog.LevelError
	default:
		return fmt.Errorf("olog: unknown level %q (want debug|info|warn|error)", level)
	}
	levelVar.Set(l)
	opts := &slog.HandlerOptions{Level: &levelVar}
	var h slog.Handler
	switch format {
	case "text", "":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return fmt.Errorf("olog: unknown format %q (want text|json)", format)
	}
	backend.Store(&h)
	return nil
}

// Disable removes the backend; loggers go back to discarding. Tests
// use it to restore the package default.
func Disable() { backend.Store(nil) }

// SetLevel adjusts the level without replacing the backend.
func SetLevel(l slog.Level) { levelVar.Set(l) }

// SetSimClock attaches the simulated clock whose current time is
// stamped on every record as the "sim" attribute. Pass nil to detach.
// Single-board commands attach their engine; sharded campaigns, where
// every shard owns an engine, leave it unset.
func SetSimClock(c obs.SimClock) {
	if c == nil {
		simClock.Store(nil)
		return
	}
	simClock.Store(&c)
}

// SetRunID stamps every subsequent record with a "run" attribute — the
// correlation key shared with the run ledger manifest.
func SetRunID(id string) { runID.Store(&id) }

// ctxKey carries the enclosing span name through a context.
type ctxKey struct{}

// WithSpan returns a context whose log records carry span=name,
// correlating them with the obs span of the same name.
func WithSpan(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, ctxKey{}, name)
}

// SpanFromContext returns the span name attached by WithSpan, or "".
func SpanFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(ctxKey{}).(string)
	return s
}

// handler is the dynamic handler behind every olog logger: it resolves
// the backend at Handle time and injects the correlation attributes.
type handler struct {
	attrs []slog.Attr
	group string
}

func (h *handler) Enabled(_ context.Context, level slog.Level) bool {
	return backend.Load() != nil && level >= levelVar.Level()
}

func (h *handler) Handle(ctx context.Context, rec slog.Record) error {
	bp := backend.Load()
	if bp == nil {
		return nil
	}
	out := rec.Clone()
	out.AddAttrs(h.attrs...)
	if p := runID.Load(); p != nil && *p != "" {
		out.AddAttrs(slog.String("run", *p))
	}
	if cp := simClock.Load(); cp != nil {
		out.AddAttrs(slog.Duration("sim", (*cp).Now()))
	}
	if span := SpanFromContext(ctx); span != "" {
		out.AddAttrs(slog.String("span", span))
	}
	return (*bp).Handle(ctx, out)
}

func (h *handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	n := &handler{group: h.group, attrs: append([]slog.Attr(nil), h.attrs...)}
	for _, a := range attrs {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		n.attrs = append(n.attrs, a)
	}
	return n
}

func (h *handler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	g := name
	if h.group != "" {
		g = h.group + "." + name
	}
	return &handler{group: g, attrs: append([]slog.Attr(nil), h.attrs...)}
}

// L returns the component's logger. The component name lands on every
// record as component=<name>; by convention it is the dotted metric
// prefix the package records under ("core.sampler", "runner", ...).
func L(component string) *slog.Logger {
	return slog.New(&handler{attrs: []slog.Attr{slog.String("component", component)}})
}

// Enabled reports whether records at the given level would be emitted;
// hot paths use it to skip building expensive attribute sets.
func Enabled(level slog.Level) bool {
	return backend.Load() != nil && level >= levelVar.Level()
}
