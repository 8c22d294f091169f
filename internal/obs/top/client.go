package top

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs"
)

// ErrHistoryDisabled reports that the server is not running a history
// recorder: /metrics/range answered 501. The dashboard treats it as
// "render without hist lines", not as a failure.
var ErrHistoryDisabled = errors.New("top: metrics history disabled on server (run with -history)")

// FetchHistory pulls windowed history for the given series from
// baseURL's /metrics/range endpoint. window <= 0 lets the server
// choose nothing — callers pass the width they will render. last <= 0
// fetches the full retention.
func FetchHistory(ctx context.Context, baseURL string, series []string, window, last time.Duration) (*History, error) {
	q := url.Values{}
	q.Set("series", strings.Join(series, ","))
	if window > 0 {
		q.Set("window", window.String())
	}
	if last > 0 {
		q.Set("last", last.String())
	}
	u := strings.TrimRight(baseURL, "/") + "/metrics/range?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotImplemented:
		return nil, ErrHistoryDisabled
	case http.StatusNotFound:
		// None of the requested series recorded yet (early in a run):
		// an empty history, not an error.
		return &History{Counters: map[string][]float64{}, Gauges: map[string][]float64{}}, nil
	default:
		return nil, fmt.Errorf("top: %s: %s", u, resp.Status)
	}
	var rr obs.RangeResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, fmt.Errorf("top: decoding %s: %w", u, err)
	}
	return HistoryFromResponse(rr), nil
}

// FetchSnapshot pulls one snapshot from baseURL's /metrics/snapshot
// endpoint; the remote dashboard polls it once per refresh.
func FetchSnapshot(ctx context.Context, baseURL string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	u := strings.TrimRight(baseURL, "/") + "/metrics/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("top: %s: %s", u, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("top: decoding %s: %w", u, err)
	}
	return snap, nil
}
