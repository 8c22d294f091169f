package trace

import (
	"encoding/json"
	"testing"
	"time"
)

func TestJSONRoundTrip(t *testing.T) {
	in := &Trace{Interval: 35 * time.Millisecond, Samples: []float64{0.55, 0.59, 3.74}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out Trace
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out.Interval != in.Interval || len(out.Samples) != 3 || out.Samples[2] != 3.74 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestJSONRejectsBadInterval(t *testing.T) {
	var out Trace
	if err := json.Unmarshal([]byte(`{"interval_ns":0,"samples":[1]}`), &out); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &out); err == nil {
		t.Fatal("garbage accepted")
	}
}
