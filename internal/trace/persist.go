package trace

import (
	"encoding/json"
	"errors"
	"time"
)

// Persistence for captured traces: JSON for lossless round trips of the
// full structure. The offline phase of the fingerprinting attack records
// once and analyzes many times; this format is the handoff.

// jsonTrace is the stable serialized form. Samples are pointers so a
// lost-sample gap (NaN, which JSON cannot encode) round-trips as null;
// files written before gaps existed decode unchanged.
type jsonTrace struct {
	IntervalNS int64      `json:"interval_ns"`
	Samples    []*float64 `json:"samples"`
}

// MarshalJSON implements json.Marshaler.
func (t *Trace) MarshalJSON() ([]byte, error) {
	samples := make([]*float64, len(t.Samples))
	for i := range t.Samples {
		if !IsGap(t.Samples[i]) {
			samples[i] = &t.Samples[i]
		}
	}
	return json.Marshal(jsonTrace{
		IntervalNS: int64(t.Interval),
		Samples:    samples,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var j jsonTrace
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.IntervalNS <= 0 {
		return errors.New("trace: non-positive interval in JSON")
	}
	t.Interval = time.Duration(j.IntervalNS)
	t.Samples = nil
	if j.Samples != nil {
		t.Samples = make([]float64, len(j.Samples))
		for i, s := range j.Samples {
			if s == nil {
				t.Samples[i] = Gap
			} else {
				t.Samples[i] = *s
			}
		}
	}
	return nil
}
