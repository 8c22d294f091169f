package top

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
)

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
