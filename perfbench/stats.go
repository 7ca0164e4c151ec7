package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// quantile reads the q-th quantile (0..1) off the samples with the
// nearest-rank method; 0 when there are none. It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// scaled converts integer samples to float64 divided by unit.
func scaled(xs []int64, unit float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / unit
	}
	return out
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeProbe reads the process-wide counters a measured window is
// charged with: CPU time, heap allocation, GC cycles, and the peak of
// the GC's heap goal sampled while the window runs. The goal is the
// heap size the runtime lets the process grow to before collecting, so
// its peak is the footprint the window needed; unlike a sample of heap
// objects, it does not depend on where in a GC cycle the sample fell.
type runtimeProbe struct {
	cpu     time.Duration
	allocs  uint64
	gcs     uint64
	peak    uint64
	stop    chan struct{}
	stopped chan struct{}
}

var probeMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/gc/heap/goal:bytes"}

func readRuntime() (cpu time.Duration, allocs, gcs, heap uint64) {
	s := make([]metrics.Sample, len(probeMetrics))
	for i, n := range probeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// startProbe snapshots the counters and samples the heap goal every
// 2 ms until end.
func startProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{}), stopped: make(chan struct{})}
	p.cpu, p.allocs, p.gcs, p.peak = readRuntime()
	go func() {
		defer close(p.stopped)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > p.peak {
					p.peak = v
				}
			}
		}
	}()
	return p
}

// windowCost is what a measured window cost the process.
type windowCost struct {
	cpu      time.Duration
	allocs   uint64
	gcs      uint64
	peakHeap uint64
}

func (p *runtimeProbe) end() windowCost {
	close(p.stop)
	<-p.stopped
	cpu, allocs, gcs, heap := readRuntime()
	if heap > p.peak {
		p.peak = heap
	}
	return windowCost{cpu: cpu - p.cpu, allocs: allocs - p.allocs, gcs: gcs - p.gcs, peakHeap: p.peak}
}

// counters sums named counters across registries at one instant.
type counters map[string]float64

// key names one series: the metric name and its label pairs.
func key(name string, labels ...string) string {
	k := name
	for _, l := range labels {
		k += "|" + l
	}
	return k
}

// readCounters samples the series each registry exports, summed over
// registries (the nodes of a cluster, and its router).
func readCounters(regs []*telemetry.Registry) counters {
	c := counters{}
	for _, reg := range regs {
		snap := reg.Snapshot()
		get := func(name string, labels ...string) {
			v, _ := snap.Get(name, labels...)
			c[key(name, labels...)] += v
		}
		for _, p := range snap {
			// Labels are sorted by key: map, then op.
			if p.Name == "uniloc_mapstore_cells_scanned" && len(p.Labels) == 4 {
				c[key("cells_sum", p.Labels[1])] += p.Value
				c[key("cells_count", p.Labels[1])] += float64(p.Count)
			}
		}
		for _, m := range []string{"wifi", "cellular"} {
			for _, op := range []string{"nearest", "distances", "vector_at", "density"} {
				get("uniloc_mapstore_lookups_total", "map", m, "op", op)
			}
			get("uniloc_mapstore_rebuilds_total", "map", m)
			get("uniloc_mapstore_points_dropped_total", "map", m)
		}
		for _, n := range []string{
			"uniloc_sharedcompute_hits_total", "uniloc_sharedcompute_misses_total",
			"uniloc_sharedcompute_entries_built_total", "uniloc_sharedcompute_tracker_shares_total",
			"uniloc_epochs_served_total", "uniloc_surveys_ingested_total", "uniloc_surveys_dropped_total",
			"uniloc_handoff_shipped_total", "uniloc_router_routed_total",
		} {
			get(n)
		}
		get("uniloc_frame_bytes_total", "dir", "in")
		get("uniloc_frame_bytes_total", "dir", "out")
	}
	return c
}

// delta returns after-before per series.
func (c counters) delta(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// spanSink keeps every completed span in memory (trace.Exporter).
type spanSink struct {
	mu   sync.Mutex
	recs []*trace.Record
}

func (s *spanSink) ExportSpan(r *trace.Record) {
	cp := *r
	s.mu.Lock()
	s.recs = append(s.recs, &cp)
	s.mu.Unlock()
}

func (s *spanSink) take() []*trace.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recs
	s.recs = nil
	return out
}

// epochSink keeps the layer timings of every framework epoch
// (telemetry.Observer, attached to each session through the factory).
type epochSink struct {
	mu       sync.Mutex
	step     []int64
	classify []int64
	predict  []int64
	combine  []int64
	estimate map[string][]int64 // per scheme
}

func newEpochSink() *epochSink { return &epochSink{estimate: map[string][]int64{}} }

func (s *epochSink) ObserveEpoch(t *telemetry.EpochTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.step = append(s.step, t.StepNS)
	s.classify = append(s.classify, t.ClassifyNS)
	s.predict = append(s.predict, t.PredictNS)
	s.combine = append(s.combine, t.CombineNS)
	for _, sc := range t.Schemes {
		s.estimate[sc.Scheme] = append(s.estimate[sc.Scheme], sc.EstimateNS)
	}
}

// take returns the recorded timings and starts afresh.
func (s *epochSink) take() *epochSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &epochSink{step: s.step, classify: s.classify, predict: s.predict, combine: s.combine, estimate: s.estimate}
	s.step, s.classify, s.predict, s.combine, s.estimate = nil, nil, nil, nil, map[string][]int64{}
	return out
}
