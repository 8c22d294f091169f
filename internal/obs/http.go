package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// traceExporter renders a snapshot as a Chrome trace-event JSON
// document for the /trace endpoint. It lives here as a pluggable hook
// because the renderer (internal/obs/export) imports this package, so
// obs cannot import it back; export installs itself in its init.
var traceExporter atomic.Pointer[func(Snapshot) ([]byte, error)]

// SetTraceExporter installs the /trace renderer. The export package
// calls this from init; any program importing it gets the endpoint.
func SetTraceExporter(f func(Snapshot) ([]byte, error)) {
	traceExporter.Store(&f)
}

// getOnly wraps a read-only endpoint: non-GET/HEAD methods get 405 with
// an Allow header instead of silently executing.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed (read-only endpoint)", http.StatusMethodNotAllowed)
			return
		}
		h(w, req)
	}
}

// NewHandler returns the observability HTTP handler:
//
//	/metrics/snapshot   JSON Snapshot of the registry
//	/trace              Chrome trace-event JSON of spans and events
//	                    (Perfetto-loadable; 501 unless obs/export is linked in)
//	/debug/pprof/...    net/http/pprof profiling endpoints
//
// The registry endpoints are GET/HEAD-only (405 otherwise) and set
// explicit Content-Type headers. The handler is mounted on its own mux
// so importing this package never touches http.DefaultServeMux.
func NewHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics/snapshot", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	}))
	mux.HandleFunc("/trace", getOnly(func(w http.ResponseWriter, req *http.Request) {
		f := traceExporter.Load()
		if f == nil {
			http.Error(w, "trace export unavailable: internal/obs/export not linked into this binary", http.StatusNotImplemented)
			return
		}
		data, err := (*f)(r.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = w.Write(data)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ShutdownGrace bounds how long Serve's shutdown waits for in-flight
// handlers to drain before closing their connections.
const ShutdownGrace = 2 * time.Second

// Serve starts the observability server on addr (e.g. "localhost:6060";
// ":0" picks a free port) and returns the bound address and a shutdown
// function. The server runs until ctx is cancelled or shutdown is
// called — both drain gracefully: every request context (including a
// long-running /debug/pprof/profile capture) is cancelled, in-flight
// handlers get ShutdownGrace to finish, then remaining connections are
// closed.
// Shutdown is idempotent and blocks until the drain completes, so the
// caller observes a fully released listener; serving errors after a
// successful bind are dropped, as the endpoint is diagnostic.
func Serve(ctx context.Context, addr string, r *Registry) (bound string, shutdown func(), err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	// baseCtx parents every request context: cancelling it unblocks
	// long-running handlers, which otherwise would hold graceful Shutdown
	// until they finish.
	baseCtx, cancelRequests := context.WithCancel(context.WithoutCancel(ctx))
	srv := &http.Server{
		Handler:     NewHandler(r),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	go func() { _ = srv.Serve(ln) }()

	var once sync.Once
	done := make(chan struct{})
	doShutdown := func() {
		once.Do(func() {
			cancelRequests()
			graceCtx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
			defer cancel()
			if err := srv.Shutdown(graceCtx); err != nil {
				_ = srv.Close()
			}
			close(done)
		})
		<-done
	}
	stop := context.AfterFunc(ctx, doShutdown)
	return ln.Addr().String(), func() { stop(); doShutdown() }, nil
}
