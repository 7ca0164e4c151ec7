// Command perfbench is the repository's benchmark. It drives the real
// TCP offload protocol from one process with one closed-loop lane per
// core: each lane walks all eight campus paths back to back, one
// session per path, and sends its next epoch as soon as the previous
// reply arrives. Inputs come from --seed before timing starts, and a
// warm-up is excluded from timing.
//
// Run it from the repository root (perfbench/README.md has the
// details):
//
//	bash perfbench/run.sh --workload walk --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, all from untraced serving; with --trace 1
// they are the per-layer ones, from an untraced window (counters the
// layers export) followed by a traced window (span tracer and epoch
// observer). The line before it records the run's context: workload,
// why it was chosen, seed, core count and GOMAXPROCS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// workload is one traffic mix; BENCHMARK.json records why each exists.
type workload struct {
	name     string
	surveys  bool // one SubmitSurvey per epoch into stores compacting every 64 points
	cluster  bool // router in front of two nodes joined by a handoff mesh
	bitExact bool // served results must repeat bit for bit
}

var workloads = []workload{
	{name: "walk", bitExact: true},
	{name: "churn", surveys: true},
	{name: "cluster", cluster: true, bitExact: true},
}

const (
	setupRepeats = 3               // set-ups per untraced run; setup_s is their median
	warmup       = 3 * time.Second // excluded from timing, on every stack
)

func main() {
	name := flag.String("workload", "", "workload: walk, churn or cluster")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "seconds measured")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext is printed before the result so every figure carries the
// conditions it was measured under.
type runContext struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Lanes      int      `json:"lanes"`
	Epochs     int      `json:"epochs_measured"`
	Digest     string   `json:"digest,omitempty"` // of every path's reference digest, untraced runs
	Problems   []string `json:"problems,omitempty"`
}

func run(name string, seed int64, d time.Duration, traced bool) error {
	var wl workload
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	if wl.name == "" {
		return fmt.Errorf("unknown workload %q", name)
	}
	why, err := readWhy(name)
	if err != nil {
		return err
	}
	ctx := runContext{Workload: name, Why: why, Seed: seed, Traced: traced,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Lanes: runtime.NumCPU()}
	lanes := makeLanes(seed, ctx.Lanes, wl.surveys)

	var out result
	if traced {
		out, err = runTraced(wl, lanes, d, &ctx)
	} else {
		out, err = runUntraced(wl, lanes, d, &ctx)
	}
	if err != nil {
		return err
	}
	out.Correct = len(ctx.Problems) == 0
	for _, p := range ctx.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", p)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(ctx); err != nil {
		return err
	}
	return enc.Encode(out)
}

// readWhy returns the workload's reason from BENCHMARK.json.
func readWhy(name string) (string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return "", err
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range spec.Workloads {
		if w.Name == name {
			return w.Why, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json has no workload %q", name)
}

// check records the output problems of one phase: failed or non-finite
// epochs, and completed walks whose results differ from the lane's
// reference.
func check(ctx *runContext, res *phaseResult, what string) {
	if n := res.failed(); n > 0 {
		ctx.Problems = append(ctx.Problems, fmt.Sprintf("%s: %d failed or non-finite epochs", what, n))
	}
	for l, rec := range res.lanes {
		for _, w := range rec.mismatched {
			ctx.Problems = append(ctx.Problems, fmt.Sprintf("%s: lane %d path %d walker %d served results differ from its first run", what, l, w.path+1, w.walker))
		}
	}
}

// digest folds every lane's reference digests into one, in lane and
// walk order, and reports a lane that has not completed every walk.
func digest(lanes []*lane, ctx *runContext) {
	var all uint64 = 14695981039346656037 // FNV-1a offset basis
	for _, ln := range lanes {
		if len(ln.ref) != len(ln.walks) {
			ctx.Problems = append(ctx.Problems, fmt.Sprintf("lane %d completed %d of its %d walks", ln.id, len(ln.ref), len(ln.walks)))
		}
		for _, w := range ln.walks {
			all = (all ^ ln.ref[w]) * 1099511628211
		}
	}
	ctx.Digest = fmt.Sprintf("%016x", all)
}

func runUntraced(wl workload, lanes []*lane, d time.Duration, ctx *runContext) (result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = build(wl, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	check(ctx, st.run(lanes, phase{d: warmup, compare: wl.bitExact}), "warm-up")
	win := st.measure(lanes, phase{d: d, fullPass: true, compare: wl.bitExact}, ctx, "measured window")
	digest(lanes, ctx)
	n := float64(win.res.epochs())
	rates, lat := win.slices(d)
	var pooled, walkP95 []float64
	for _, rec := range win.res.lanes {
		for _, e := range rec.posErr {
			pooled = append(pooled, e...)
			walkP95 = append(walkP95, quantile(e, 0.95))
		}
	}
	ctx.Epochs = win.res.epochs()
	return result{
		Attempted: win.res.epochs(),
		Failed:    win.res.failed(),
		Metrics: map[string]metric{
			"setup_s":            {quantile(setups, 0.5), "s"},
			"epochs_per_s":       {quantile(rates, 0.5), "1/s"},
			"epoch_p50_ms":       {medianOf(lat, 0.50), "ms"},
			"epoch_p99_ms":       {medianOf(lat, 0.99), "ms"},
			"ok_ratio":           {ratio(n-float64(win.res.failed()), n), "ratio"},
			"pos_err_p50_m":      {quantile(pooled, 0.50), "m"},
			"pos_err_p95_m":      {mean(walkP95), "m"},
			"alloc_kb_per_epoch": {ratio(float64(win.cost.allocs)/1024, n), "KiB"},
			"heap_peak_mb":       {float64(win.cost.peakHeap) / (1 << 20), "MiB"},
		},
	}, nil
}

func runTraced(wl workload, lanes []*lane, d time.Duration, ctx *runContext) (result, error) {
	// Untraced window: the layers' own counters, and the throughput the
	// traced window is compared against.
	st, err := build(wl, nil)
	if err != nil {
		return result{}, err
	}
	check(ctx, st.run(lanes, phase{d: warmup, compare: wl.bitExact}), "warm-up")
	plain := st.measure(lanes, phase{d: d / 2, compare: wl.bitExact}, ctx, "untraced window")
	st.close()

	// Traced window on a fresh stack. Walks it completes must serve the
	// same results as the untraced stack's.
	spans := &spanSink{}
	tr := &tracing{tracer: trace.New(trace.Config{Exporter: spans}), spans: spans, epochs: newEpochSink()}
	tst, err := build(wl, tr)
	if err != nil {
		return result{}, err
	}
	defer tst.close()
	check(ctx, tst.run(lanes, phase{d: warmup, compare: wl.bitExact}), "traced warm-up")
	traced := tst.measure(lanes, phase{d: d / 2, compare: wl.bitExact}, ctx, "traced window")

	ctx.Epochs = plain.res.epochs() + traced.res.epochs()
	return result{
		Attempted: ctx.Epochs,
		Failed:    plain.res.failed() + traced.res.failed(),
		Metrics:   layerMetrics(wl, plain, traced),
	}, nil
}

// window is one measured stretch of serving and everything charged to
// it.
type window struct {
	res        *phaseResult
	cost       windowCost
	ctr        counters // per-series increase over the window
	stepMeanMS float64  // offload.Stats: mean server-side step time
	shipBytes  int64
	shipNS     []int64
	spans      []*trace.Record
	epochs     *epochSink
}

// slice is the length of the pieces a measured window is cut into.
// Throughput and latency percentiles are taken per slice and reported
// as the median slice, so a short stall of the shared host moves one
// slice rather than the figure. Two seconds hold over a thousand epochs
// on every workload, so at least ten lie beyond a slice's p99.
const slice = 2 * time.Second

// slices returns, per complete slice of the window, the epochs per
// second and the latency samples (ms) of the epochs that completed in
// it. A slice's rate is its completions after the first over the time
// from the first completion to the last, so it is not rounded to the
// slice length.
func (w *window) slices(d time.Duration) (rates []float64, lat [][]float64) {
	n := int(d / slice)
	lat = make([][]float64, n)
	first := make([]int64, n)
	last := make([]int64, n)
	for _, rec := range w.res.lanes {
		for i, done := range rec.doneNS {
			k := int(done / int64(slice))
			if k >= n {
				continue
			}
			if len(lat[k]) == 0 || done < first[k] {
				first[k] = done
			}
			if done > last[k] {
				last[k] = done
			}
			lat[k] = append(lat[k], float64(rec.latNS[i])/1e6)
		}
	}
	for k, l := range lat {
		rates = append(rates, ratio(float64(len(l)-1), time.Duration(last[k]-first[k]).Seconds()))
	}
	return rates, lat
}

// medianOf returns the median over slices of each slice's q-quantile.
func medianOf(lat [][]float64, q float64) float64 {
	per := make([]float64, len(lat))
	for i, l := range lat {
		per[i] = quantile(l, q)
	}
	return quantile(per, 0.5)
}

// measure serves the phase, every lane starting at its first path, and
// checks the window's outputs and the layers' accounting of it.
func (st *stack) measure(lanes []*lane, ph phase, ctx *runContext, what string) *window {
	regs := st.regs()
	before := readCounters(regs)
	stepNS, served := st.stepTotals()
	if st.ship != nil {
		st.ship.take()
	}
	if st.tr != nil {
		st.tr.spans.take()
		st.tr.epochs.take()
	}
	errsBefore := st.connErrs.Load()
	runtime.GC() // every window starts from a freshly collected heap
	probe := startProbe()
	res := st.run(lanes, ph)
	w := &window{res: res, cost: probe.end()}
	w.ctr = readCounters(regs).delta(before)
	stepNS2, served2 := st.stepTotals()
	w.stepMeanMS = ratio(stepNS2-stepNS, served2-served) / 1e6
	if st.ship != nil {
		w.shipBytes, w.shipNS = st.ship.take()
	}
	if st.tr != nil {
		w.spans = st.tr.spans.take()
		w.epochs = st.tr.epochs.take()
	}

	check(ctx, res, what)
	if got, want := w.ctr[key("uniloc_epochs_served_total")], float64(res.epochs()); got != want {
		ctx.Problems = append(ctx.Problems, fmt.Sprintf("%s: servers counted %.0f epochs, lanes %.0f", what, got, want))
	}
	sent := 0
	for _, rec := range res.lanes {
		sent += rec.surveys
	}
	if got := w.ctr[key("uniloc_surveys_ingested_total")]; got != float64(sent) {
		ctx.Problems = append(ctx.Problems, fmt.Sprintf("%s: %d surveys sent, %.0f ingested", what, sent, got))
	}
	if n := st.connErrs.Load() - errsBefore; n > 0 {
		ctx.Problems = append(ctx.Problems, fmt.Sprintf("%s: %d serving errors", what, n))
	}
	return w
}

func (st *stack) regs() []*telemetry.Registry {
	regs := make([]*telemetry.Registry, 0, len(st.nodes)+1)
	for _, n := range st.nodes {
		regs = append(regs, n.reg)
	}
	if st.routerReg != nil {
		regs = append(regs, st.routerReg)
	}
	return regs
}

// stepTotals sums, over the nodes, the server-side step time and the
// epochs it covers, from offload.Stats.
func (st *stack) stepTotals() (stepNS, served float64) {
	for _, n := range st.nodes {
		s := n.srv.Stats()
		stepNS += float64(s.EpochLatencyAvg) * float64(s.EpochsServed)
		served += float64(s.EpochsServed)
	}
	return stepNS, served
}
