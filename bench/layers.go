package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obs"
)

// probeSampleEvery is the sensor-read timing stride: timing every read
// would cost as much as the read itself, so one call in this many is
// timed and the total is scaled up from those.
const probeSampleEvery = 64

// layers times calls into the program's layers from outside. Each
// timer name is a layer call site; its metric is the name plus "_s".
// A nil *layers times nothing, so the code that finishes a workload is
// shared by the traced and untraced runs.
type layers struct {
	calls map[string][]time.Duration

	probeCalls   int
	probeTimed   int
	probeSampled time.Duration

	trainAllocBytes uint64
}

func newLayers() *layers { return &layers{calls: map[string][]time.Duration{}} }

// time runs f and charges its wall time to the named layer.
func (l *layers) time(name string, f func() error) error {
	if l == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	l.calls[name] = append(l.calls[name], time.Since(t0))
	return err
}

// do is time for calls that cannot fail.
func (l *layers) do(name string, f func()) {
	_ = l.time(name, func() error { f(); return nil })
}

// train is time for rforest.Train calls, which also records the bytes
// each call allocates.
func (l *layers) train(f func() error) error {
	if l == nil {
		return f()
	}
	a0 := heapAllocBytes()
	err := l.time("rforest.train", f)
	l.trainAllocBytes += heapAllocBytes() - a0
	return err
}

// probe wraps a sensor probe so its calls are counted and sampled.
func (l *layers) probe(p func() (float64, error)) func() (float64, error) {
	return func() (float64, error) {
		l.probeCalls++
		if l.probeCalls%probeSampleEvery != 0 {
			return p()
		}
		t0 := time.Now()
		v, err := p()
		l.probeSampled += time.Since(t0)
		l.probeTimed++
		return v, err
	}
}

func (l *layers) seconds(name string) float64 {
	var total time.Duration
	for _, d := range l.calls[name] {
		total += d
	}
	return total.Seconds()
}

func (l *layers) count(name string) float64 { return float64(len(l.calls[name])) }

// quantile returns the nearest-rank q-quantile of the layer's call
// times in the given unit, 0 when the layer was not called.
func (l *layers) quantile(name string, q float64, unit time.Duration) float64 {
	ds := append([]time.Duration(nil), l.calls[name]...)
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	i = min(max(i, 0), len(ds)-1)
	return float64(ds[i]) / float64(unit)
}

// readSeconds estimates total probe time from the sampled calls.
func (l *layers) readSeconds() float64 {
	if l.probeTimed == 0 {
		return 0
	}
	return l.probeSampled.Seconds() * float64(l.probeCalls) / float64(l.probeTimed)
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// pair is one untraced and one traced execution of a workload.
type pair struct {
	values map[string]float64
	// probed counts the sysfs curr1_input and power1_input reads of the
	// traced run, the program's own view of the probe calls.
	probed        float64
	plain, traced *outcome
}

// tracePair runs the workload through core, then as the outside
// composition, and derives the per-layer metrics of the second run.
func tracePair(w workload, seed int64) (pair, error) {
	span := obs.H("span.ml.fold_train.wall_ns")
	s0 := span.Sum()
	t0 := time.Now()
	plain, err := w.run(seed)
	untraced := time.Since(t0)
	if err != nil {
		return pair{}, err
	}
	spanTrain := (span.Sum() - s0) / 1e9

	runtime.GC()
	lt := newLayers()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := counters()
	t1 := time.Now()
	traced, err := w.traced(seed, lt)
	tracedWall := time.Since(t1)
	c1 := counters()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return pair{}, err
	}

	d := func(name string) float64 { return delta(c1, c0, name) }
	v := map[string]float64{
		"rforest.train_calls":    lt.count("rforest.train"),
		"rforest.train_s":        lt.seconds("rforest.train"),
		"rforest.train_ms_p50":   lt.quantile("rforest.train", 0.5, time.Millisecond),
		"rforest.train_ms_p90":   lt.quantile("rforest.train", 0.9, time.Millisecond),
		"rforest.train_alloc_mb": float64(lt.trainAllocBytes) / (1 << 20),
		"rforest.train_span_s":   spanTrain,
		"rforest.predict_calls":  lt.count("rforest.predict"),
		"rforest.predict_s":      lt.seconds("rforest.predict"),
		"rforest.predict_us_p50": lt.quantile("rforest.predict", 0.5, time.Microsecond),
		"crossval.folds_s":       lt.seconds("crossval.folds"),
		"features.extract_calls": lt.count("features.extract"),
		"features.extract_s":     lt.seconds("features.extract"),
		"core.collect_calls":     lt.count("core.collect"),
		"core.collect_s":         lt.seconds("core.collect"),
		"core.collect_ms_p50":    lt.quantile("core.collect", 0.5, time.Millisecond),
		"core.collect_ms_max":    lt.quantile("core.collect", 1, time.Millisecond),
		"core.captures":          d("core.captures"),
		"core.levels":            lt.count("core.level"),
		"core.level_s":           lt.seconds("core.level"),
		"core.level_ms_p50":      lt.quantile("core.level", 0.5, time.Millisecond),
		"core.level_ms_p90":      lt.quantile("core.level", 0.9, time.Millisecond),
		"core.fit_s":             lt.seconds("core.fit"),
		"board.builds":           lt.count("board.build"),
		"board.build_s":          lt.seconds("board.build"),
		"sim.run_s":              lt.seconds("sim.run"),
		"sim.ticks":              d("sim.ticks"),
		"sensor.reads":           float64(lt.probeCalls),
		"sensor.read_s":          lt.readSeconds(),
		"sysfs.reads":            d("sysfs.reads"),
		"sampler.retries":        d("core.sampler.retries"),
		"sampler.reresolves":     d("core.sampler.reresolves"),
		"trace.samples":          d("trace.samples_recorded"),
		"trace.gaps":             d("trace.gaps_recorded"),
		"faults.injected":        d("faults.injected"),
		"stats.compute_s":        lt.seconds("stats.compute"),
		"report.render_s":        lt.seconds("report.render"),
		"runtime.gc_cycles":      float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_s":     float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
		"traced.wall_s":          tracedWall.Seconds(),
		"untraced_1w.wall_s":     untraced.Seconds(),
		"trace.overhead_s":       (tracedWall - untraced).Seconds(),
	}
	// Sensor reads happen inside SoC.Run, so the simulator's own time
	// is the run time minus the read time.
	v["sim.self_s"], v["sim.ns_per_tick"], v["sensor.ns_per_read"] = 0, 0, 0
	if v["sim.run_s"] > 0 {
		v["sim.self_s"] = v["sim.run_s"] - v["sensor.read_s"]
		if v["sim.ticks"] > 0 {
			v["sim.ns_per_tick"] = v["sim.self_s"] * 1e9 / v["sim.ticks"]
		}
	}
	if lt.probeCalls > 0 {
		v["sensor.ns_per_read"] = v["sensor.read_s"] * 1e9 / float64(lt.probeCalls)
	}
	attributed := 0.0
	for _, name := range topLevelLayers {
		attributed += lt.seconds(name)
	}
	v["unattributed_s"] = tracedWall.Seconds() - attributed
	v["unattributed_share"] = v["unattributed_s"] / tracedWall.Seconds()
	return pair{
		values: v,
		probed: d("sysfs.reads.curr1_input") + d("sysfs.reads.power1_input"),
		plain:  plain,
		traced: traced,
	}, nil
}
