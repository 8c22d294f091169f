package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerSnapshotEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.ticks").Add(42)
	r.Histogram("attacker.sample_rate_hz").Observe(28.5)
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counter("sim.ticks") != 42 {
		t.Fatalf("served snapshot counter = %d", s.Counter("sim.ticks"))
	}
	if h, ok := s.Histogram("attacker.sample_rate_hz"); !ok || h.Count != 1 {
		t.Fatalf("served histogram = %+v ok=%v", h, ok)
	}
}

func TestHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Fatal("/debug/pprof/ returned an empty body")
	}
}

// TestHandlerMethodGuard pins the read-only contract: non-GET requests
// on the registry endpoints get 405 with an Allow header.
func TestHandlerMethodGuard(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry()))
	defer srv.Close()
	for _, path := range []string{"/metrics/snapshot", "/trace"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
			t.Fatalf("POST %s Allow = %q, want \"GET, HEAD\"", path, allow)
		}
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	addr, shutdown, err := Serve(context.Background(), "127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	shutdown()
	if _, err := http.Get("http://" + addr + "/metrics/snapshot"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}
