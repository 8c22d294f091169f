package dpu

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// perQuerySchedule is the reference: one query's segment list built
// from scratch, preprocessing sized to its source image, as the engine
// built it on every query before it kept the model's schedule.
func perQuerySchedule(m *Model, w, h int) []segment {
	segs := []segment{{
		dur: preprocess(float64(w*h) / 1e6), elements: idleElements,
		cpuFull: 0.85, cpuLow: 0.30, ddr: 0.15,
	}}
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.Type == Softmax {
			segs = append(segs, segment{dur: softmaxTime, elements: idleElements,
				cpuFull: 0.6, cpuLow: 0.2, ddr: 0.05})
			continue
		}
		dur, compute, memory, ok := roofline(l)
		if !ok {
			continue
		}
		segs = append(segs, segment{dur: dur, elements: idleElements + peakElements*compute,
			cpuFull: 0.10, cpuLow: 0.10 + 0.25*memory, ddr: memory})
	}
	return append(segs, segment{dur: queryGap, elements: idleElements,
		cpuFull: 0.30, cpuLow: 0.15, ddr: 0.05})
}

// randomQueries draws each query's source size and remembers the last.
type randomQueries struct {
	rng   *rand.Rand
	w, h  int
	calls int
}

func (q *randomQueries) Next() (int, int) {
	q.w, q.h = 100+q.rng.Intn(1500), 100+q.rng.Intn(1500)
	q.calls++
	return q.w, q.h
}

// TestScheduleMatchesPerQueryBuild: the schedule LoadModel builds once,
// with only its preprocessing rewritten per query, must equal the
// per-query build for every query, across model switches and stops;
// the first step after a LoadModel starts a query, and every query but
// that first one counts as an inference.
func TestScheduleMatchesPerQueryBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := &randomQueries{rng: rng}
	h := &testHooks{}
	e, err := NewEngine(h.config(q))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"MobileNet-V1", "SqueezeNet-1.1", "ResNet-50", "VGG-19"}
	var m *Model
	started := 0 // queries started since the last LoadModel
	wantInferences := uint64(0)
	for tick := 0; tick < 4000; tick++ {
		if tick%500 == 0 {
			if m, err = ZooModel(names[rng.Intn(len(names))]); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadModel(m); err != nil {
				t.Fatal(err)
			}
			started = 0
		}
		if tick%500 == 400 {
			e.Stop()
		}
		before := q.calls
		e.Step(time.Duration(tick)*time.Millisecond, time.Duration(1+rng.Intn(3000))*time.Microsecond)
		if tick%500 == 0 && q.calls == before {
			t.Fatalf("tick %d: the first step after LoadModel started no query", tick)
		}
		for n := q.calls - before; n > 0; n-- {
			if started > 0 {
				wantInferences++
			}
			started++
		}
		if q.calls > before {
			if want := perQuerySchedule(m, q.w, q.h); !reflect.DeepEqual(e.segments, want) {
				t.Fatalf("tick %d, %s: schedule differs from the per-query build", tick, m.Name)
			}
		}
		if e.Inferences() != wantInferences {
			t.Fatalf("tick %d: %d inferences, want %d", tick, e.Inferences(), wantInferences)
		}
	}
	if wantInferences < 100 {
		t.Fatalf("only %d inferences in the run", wantInferences)
	}
}
